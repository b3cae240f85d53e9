// Unit tests for base/: Status/Result, errno names, ids.
#include <gtest/gtest.h>

#include "base/errno.h"
#include "base/id_allocator.h"
#include "base/result.h"

namespace sg {
namespace {

TEST(Status, OkAndError) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.error(), Errno::kOk);
  Status bad = Errno::kENOENT;
  EXPECT_FALSE(bad.ok());
  EXPECT_STREQ(bad.name(), "ENOENT");
  EXPECT_STREQ(bad.message(), "no such file or directory");
  EXPECT_EQ(bad, Status(Errno::kENOENT));
}

TEST(Result, ValueAndError) {
  Result<int> v = 7;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 7);
  EXPECT_EQ(v.error(), Errno::kOk);
  Result<int> e = Errno::kEAGAIN;
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.error(), Errno::kEAGAIN);
  EXPECT_EQ(e.value_or(-1), -1);
}

TEST(Result, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> p = std::move(r).value();
  EXPECT_EQ(*p, 5);
}

TEST(ErrnoNames, AllNamed) {
  for (Errno e : {Errno::kEPERM, Errno::kENOENT, Errno::kEINTR, Errno::kEBADF, Errno::kEAGAIN,
                  Errno::kENOMEM, Errno::kEACCES, Errno::kEFAULT, Errno::kEEXIST, Errno::kEINVAL,
                  Errno::kENFILE, Errno::kEMFILE, Errno::kEFBIG, Errno::kESPIPE, Errno::kEPIPE,
                  Errno::kEIDRM, Errno::kENOSYS}) {
    EXPECT_NE(std::string_view(ErrnoName(e)), "E???");
    EXPECT_NE(std::string_view(ErrnoMessage(e)), "unknown error");
  }
}

TEST(IdAllocator, LowestFirstAndReuse) {
  IdAllocator ids(1, 4);
  EXPECT_EQ(ids.Allocate().value(), 1);
  EXPECT_EQ(ids.Allocate().value(), 2);
  EXPECT_EQ(ids.Allocate().value(), 3);
  ids.Free(2);
  EXPECT_EQ(ids.Allocate().value(), 2);  // freed ids reused lowest-first
  EXPECT_EQ(ids.Allocate().value(), 4);
  EXPECT_EQ(ids.Allocate().error(), Errno::kEAGAIN);  // exhausted
  EXPECT_EQ(ids.InUse(), 4);
  ids.Free(1);
  EXPECT_EQ(ids.Allocate().value(), 1);
}

TEST(PageMath, FloorCeilPages) {
  EXPECT_EQ(PageFloor(kPageSize + 1), kPageSize);
  EXPECT_EQ(PageCeil(kPageSize + 1), 2 * kPageSize);
  EXPECT_EQ(PageCeil(kPageSize), kPageSize);
  EXPECT_EQ(PagesFor(1), 1u);
  EXPECT_EQ(PagesFor(0), 0u);
  EXPECT_EQ(PagesFor(kPageSize * 3), 3u);
  EXPECT_EQ(PageOf(kPageSize * 5 + 17), 5u);
}

}  // namespace
}  // namespace sg
