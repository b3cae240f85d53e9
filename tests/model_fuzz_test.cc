// Model-based fuzzing of two self-contained substrates:
//   * VaAllocator against a reference interval model (no overlaps, frees
//     reusable, bounds respected);
//   * Pipe byte-stream integrity under randomized chunk sizes (every byte
//     arrives exactly once, in order, across blocking boundaries).
#include <gtest/gtest.h>

#include <random>
#include <thread>

#include "fs/pipe.h"
#include "vm/layout.h"
#include "vm/va_allocator.h"

namespace sg {
namespace {

class VaFuzz : public ::testing::TestWithParam<u32> {};

TEST_P(VaFuzz, NeverOverlapsAndReusesFreedRanges) {
  std::mt19937 rng(GetParam());
  VaAllocator va(kArenaBase, kArenaEnd, kStackTop);
  struct Range {
    vaddr_t base;
    u64 pages;
  };
  std::vector<Range> live;
  auto overlaps_model = [&](vaddr_t base, u64 pages) {
    for (const Range& r : live) {
      if (base < r.base + r.pages * kPageSize && r.base < base + pages * kPageSize) {
        return true;
      }
    }
    return false;
  };
  for (int step = 0; step < 2000; ++step) {
    const u32 op = rng() % 100;
    if (op < 40) {
      const u64 pages = 1 + rng() % 64;
      auto got = va.AllocUp(pages);
      if (got.ok()) {
        ASSERT_FALSE(overlaps_model(got.value(), pages)) << "AllocUp overlap";
        ASSERT_GE(got.value(), kArenaBase);
        ASSERT_LE(got.value() + pages * kPageSize, kArenaEnd);
        live.push_back({got.value(), pages});
      }
    } else if (op < 70) {
      const u64 pages = 1 + rng() % 512;
      auto got = va.AllocDown(pages);
      if (got.ok()) {
        ASSERT_FALSE(overlaps_model(got.value(), pages)) << "AllocDown overlap";
        ASSERT_GE(got.value(), kArenaEnd);
        ASSERT_LE(got.value() + pages * kPageSize, kStackTop);
        live.push_back({got.value(), pages});
      }
    } else if (op < 90 && !live.empty()) {
      const size_t i = rng() % live.size();
      va.Free(live[i].base);
      live.erase(live.begin() + static_cast<long>(i));
    } else {
      // Explicit reserve of a random (possibly colliding) range.
      const u64 pages = 1 + rng() % 16;
      const vaddr_t base = kArenaBase + (rng() % 10000) * kPageSize;
      const bool collide = overlaps_model(base, pages);
      Status st = va.Reserve(base, pages);
      ASSERT_EQ(st.ok(), !collide) << "Reserve disagreed with the model";
      if (st.ok()) {
        live.push_back({base, pages});
      }
    }
    ASSERT_EQ(va.RangesInUse(), live.size());
  }
  // Drain and confirm full reuse.
  for (const Range& r : live) {
    va.Free(r.base);
  }
  EXPECT_EQ(va.RangesInUse(), 0u);
  EXPECT_TRUE(va.AllocUp(1024).ok());
  EXPECT_TRUE(va.AllocDown(4096).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, VaFuzz, ::testing::Range(1u, 7u));

class PipeFuzz : public ::testing::TestWithParam<u32> {};

TEST_P(PipeFuzz, ByteStreamIntactUnderRandomChunking) {
  std::mt19937 wrng(GetParam());
  std::mt19937 rrng(GetParam() * 31 + 7);
  Pipe pipe;
  pipe.AddReader();
  pipe.AddWriter();
  constexpr u64 kTotal = 256 * 1024;

  std::thread writer([&] {
    std::vector<std::byte> buf(Pipe::kCapacity * 2);
    u64 sent = 0;
    while (sent < kTotal) {
      const u64 n = std::min<u64>(1 + wrng() % buf.size(), kTotal - sent);
      for (u64 i = 0; i < n; ++i) {
        buf[i] = static_cast<std::byte>((sent + i) * 131 % 251);
      }
      auto w = pipe.Write(buf.data(), n);
      ASSERT_TRUE(w.ok());
      sent += w.value();
    }
    pipe.RemoveWriter();
  });

  std::vector<std::byte> buf(Pipe::kCapacity * 2);
  u64 got = 0;
  for (;;) {
    const u64 want = 1 + rrng() % buf.size();
    auto r = pipe.Read(buf.data(), want);
    ASSERT_TRUE(r.ok());
    if (r.value() == 0) {
      break;  // EOF
    }
    for (u64 i = 0; i < r.value(); ++i) {
      ASSERT_EQ(buf[i], static_cast<std::byte>((got + i) * 131 % 251)) << "at byte " << got + i;
    }
    got += r.value();
  }
  writer.join();
  EXPECT_EQ(got, kTotal);
  EXPECT_EQ(pipe.BytesBuffered(), 0u);
  pipe.RemoveReader();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipeFuzz, ::testing::Range(1u, 6u));

}  // namespace
}  // namespace sg
