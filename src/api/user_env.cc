#include "api/user_env.h"

#include "proc/deliver.h"

namespace sg {

void Env::MemoryFault() {
  p_.PostSignal(kSigSegv);
  DeliverPendingSignals(p_);  // default disposition terminates
  // A handler may catch SIGSEGV; classic semantics would restart the
  // faulting instruction, which a hosted simulation cannot do — treat a
  // caught fault as fatal anyway.
  throw ProcTerminated{0, kSigSegv};
}

}  // namespace sg
