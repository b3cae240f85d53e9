// Pipe — the classic UNIX queueing IPC path ("communication paths are
// restricted to low bandwidth queueing mechanisms, such as pipes" — §1).
// It is both a substrate (shells, servers) and the E5/E6 baseline whose
// copy-and-queue costs the paper contrasts with shared memory.
#ifndef SRC_FS_PIPE_H_
#define SRC_FS_PIPE_H_

#include <condition_variable>
#include <mutex>
#include <vector>

#include "base/result.h"
#include "base/types.h"

namespace sg {

class Pipe {
 public:
  static constexpr u64 kCapacity = 4096;  // classic PIPE_BUF-sized buffer

  Pipe() : buf_(kCapacity) {}
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  // Reads up to `len` bytes; blocks while the pipe is empty and writers
  // remain. Returns 0 at EOF (empty and no writers), kEINTR if interrupted.
  Result<u64> Read(std::byte* out, u64 len);

  // Writes `len` bytes, blocking while full; kEPIPE once no readers remain
  // (the caller posts SIGPIPE). Partial writes happen only on interruption.
  Result<u64> Write(const std::byte* src, u64 len);

  // Endpoint accounting, driven by open-file reference management.
  void AddReader();
  void AddWriter();
  void RemoveReader();
  void RemoveWriter();

  u64 BytesBuffered() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::byte> buf_;
  u64 head_ = 0;  // read position
  u64 size_ = 0;  // bytes buffered
  u32 readers_ = 0;
  u32 writers_ = 0;
};

}  // namespace sg

#endif  // SRC_FS_PIPE_H_
