// The main of every test binary. It adds one listener: a test during which
// lockdep filed a report (a lock-order cycle or a sleep under a spinlock)
// fails, even when the test itself never asks lockdep. ctest runs each test
// in its own process, so a report is charged to the test that made it.
// LockdepTest files reports on purpose and checks their counts itself.
// Outside the lockdep preset Reports() is always 0 and the listener is idle.
#include <gtest/gtest.h>

#include <string_view>

#include "sync/lockdep.h"

namespace sg {
namespace {

class LockdepListener : public ::testing::EmptyTestEventListener {
 public:
  void OnTestStart(const ::testing::TestInfo&) override { before_ = lockdep::Reports(); }

  void OnTestEnd(const ::testing::TestInfo& info) override {
    if (std::string_view(info.test_suite_name()) != "LockdepTest") {
      EXPECT_LE(lockdep::Reports(), before_) << lockdep::RenderReport();
    }
  }

 private:
  u64 before_ = 0;
};

}  // namespace
}  // namespace sg

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  ::testing::UnitTest::GetInstance()->listeners().Append(new sg::LockdepListener);
  return RUN_ALL_TESTS();
}
