// File-backed mappings: demand fill from the file, dirty tracking and
// writeback for shared mappings, COW privacy for private mappings, fork
// semantics, group-wide visibility, and interaction with the pager.
#include <gtest/gtest.h>

#include <atomic>

#include "api/kernel.h"
#include "api/user_env.h"

namespace sg {
namespace {

void RunAsProcess(Kernel& k, std::function<void(Env&)> body) {
  auto pid = k.Launch([body = std::move(body)](Env& env, long) { body(env); });
  ASSERT_TRUE(pid.ok());
  k.WaitAll();
}

// Creates /blob with `words` little-endian u32 values i*3 and returns a
// read-write fd.
int MakeBlob(Env& env, u32 words) {
  const int fd = env.Open("/blob", kOpenRdwr | kOpenCreat | kOpenTrunc);
  EXPECT_GE(fd, 0);
  std::vector<u32> data(words);
  for (u32 i = 0; i < words; ++i) {
    data[i] = i * 3;
  }
  EXPECT_EQ(env.WriteBuf(fd, std::as_bytes(std::span<const u32>(data))),
            static_cast<i64>(words * 4));
  return fd;
}

TEST(MmapFile, DemandFillsFromFile) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    const int fd = MakeBlob(env, 3000);  // ~3 pages
    const vaddr_t a = env.MmapFile(fd, 0, 3000 * 4, /*shared=*/false);
    ASSERT_NE(a, 0u);
    EXPECT_EQ(env.Load32(a), 0u);
    EXPECT_EQ(env.Load32(a + 4 * 1024), 1024u * 3);
    EXPECT_EQ(env.Load32(a + 4 * 2999), 2999u * 3);
    // The zero tail past EOF within the last page reads as zero.
    EXPECT_EQ(env.Load32(a + 4 * 3000), 0u);
  });
}

TEST(MmapFile, OffsetMapping) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    const int fd = MakeBlob(env, 4096);  // 4 pages of data
    const vaddr_t a = env.MmapFile(fd, kPageSize, 2 * kPageSize, false);
    ASSERT_NE(a, 0u);
    // First mapped word is file word 1024.
    EXPECT_EQ(env.Load32(a), 1024u * 3);
    // Unaligned offsets rejected.
    EXPECT_EQ(env.MmapFile(fd, 100, kPageSize, false), 0u);
    EXPECT_EQ(env.LastError(), Errno::kEINVAL);
  });
}

TEST(MmapFile, PrivateMappingWritesNeverReachTheFile) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    const int fd = MakeBlob(env, 1024);
    const vaddr_t a = env.MmapFile(fd, 0, kPageSize, /*shared=*/false);
    env.Store32(a, 999);
    EXPECT_EQ(env.Load32(a), 999u);
    EXPECT_EQ(env.Munmap(a), 0);
    u32 first = 1;
    env.Lseek(fd, 0);
    env.ReadBuf(fd, std::as_writable_bytes(std::span<u32>(&first, 1)));
    EXPECT_EQ(first, 0u);  // untouched
  });
}

TEST(MmapFile, SharedMappingWritesBackOnMsyncAndMunmap) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    const int fd = MakeBlob(env, 2048);
    const vaddr_t a = env.MmapFile(fd, 0, 2048 * 4, /*shared=*/true);
    ASSERT_NE(a, 0u);
    env.Store32(a + 4, 777);  // dirty page 0
    // Not yet in the file...
    u32 w[2];
    env.Lseek(fd, 0);
    env.ReadBuf(fd, std::as_writable_bytes(std::span<u32>(w, 2)));
    EXPECT_EQ(w[1], 3u);
    // ...until msync.
    ASSERT_EQ(env.Msync(a), 0);
    env.Lseek(fd, 0);
    env.ReadBuf(fd, std::as_writable_bytes(std::span<u32>(w, 2)));
    EXPECT_EQ(w[1], 777u);
    // A store after the msync, through the translation still cached
    // writable, reaches the file at the next msync.
    env.Store32(a + 4, 999);
    ASSERT_EQ(env.Msync(a), 0);
    env.Lseek(fd, 0);
    env.ReadBuf(fd, std::as_writable_bytes(std::span<u32>(w, 2)));
    EXPECT_EQ(w[1], 999u);
    // A second dirtying + munmap also writes back.
    env.Store32(a + 4 * 1500, 888);
    ASSERT_EQ(env.Munmap(a), 0);
    env.Lseek(fd, 4 * 1500);
    env.ReadBuf(fd, std::as_writable_bytes(std::span<u32>(w, 1)));
    EXPECT_EQ(w[0], 888u);
    env.Lseek(fd, 0);
    env.ReadBuf(fd, std::as_writable_bytes(std::span<u32>(w, 2)));
    EXPECT_EQ(w[1], 999u);
  });
}

TEST(MmapFile, SharedMappingRequiresWritableFd) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    MakeBlob(env, 64);
    const int ro = env.Open("/blob", kOpenRead);
    ASSERT_GE(ro, 0);
    EXPECT_EQ(env.MmapFile(ro, 0, kPageSize, /*shared=*/true), 0u);
    EXPECT_EQ(env.LastError(), Errno::kEACCES);
    EXPECT_NE(env.MmapFile(ro, 0, kPageSize, /*shared=*/false), 0u);  // private ok
  });
}

TEST(MmapFile, SharedMappingSharedAcrossFork) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    const int fd = MakeBlob(env, 1024);
    const vaddr_t a = env.MmapFile(fd, 0, kPageSize, /*shared=*/true);
    std::atomic<bool> wrote{false};
    env.Fork([&, a](Env& c, long) {
      c.Store32(a, 4242);  // MAP_SHARED: visible to the parent
      wrote = true;
    });
    env.WaitChild();
    ASSERT_TRUE(wrote.load());
    EXPECT_EQ(env.Load32(a), 4242u);
  });
}

TEST(MmapFile, PrivateMappingCowAcrossFork) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    const int fd = MakeBlob(env, 1024);
    const vaddr_t a = env.MmapFile(fd, 0, kPageSize, /*shared=*/false);
    env.Store32(a, 1);  // fault in + privatize before fork
    std::atomic<u32> child_saw{0};
    env.Fork([&, a](Env& c, long) {
      child_saw = c.Load32(a);
      c.Store32(a, 2);
      // Untouched pages of the twin still fill from the FILE.
      EXPECT_EQ(c.Load32(a + 4 * 512), 512u * 3);
    });
    env.WaitChild();
    EXPECT_EQ(child_saw.load(), 1u);
    EXPECT_EQ(env.Load32(a), 1u);
  });
}

TEST(MmapFile, GroupSharedMappingVisibleToMembers) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    const int fd = MakeBlob(env, 1024);
    const vaddr_t a = env.MmapFile(fd, 0, kPageSize, /*shared=*/true);
    env.Sproc(
        [a](Env& c, long) {
          EXPECT_EQ(c.Load32(a + 4), 3u);  // file content through the group image
          c.Store32(a + 4, 55);
        },
        PR_SADDR);
    env.WaitChild();
    EXPECT_EQ(env.Load32(a + 4), 55u);
    ASSERT_EQ(env.Msync(a), 0);
    u32 w[2];
    env.Lseek(fd, 0);
    env.ReadBuf(fd, std::as_writable_bytes(std::span<u32>(w, 2)));
    EXPECT_EQ(w[1], 55u);  // the member's write reached the file
  });
}

TEST(MmapFile, PagerStealsAndWritebackStillCorrect) {
  BootParams bp;
  bp.phys_mem_bytes = 48 * kPageSize;
  bp.swap_pages = 256;
  Kernel k(bp);
  RunAsProcess(k, [&](Env& env) {
    const int fd = MakeBlob(env, 16 * 1024);  // 16 pages of file data
    const vaddr_t a = env.MmapFile(fd, 0, 16 * kPageSize, /*shared=*/true);
    // Dirty every page, then blow the page cache with anonymous pressure.
    for (u64 i = 0; i < 16; ++i) {
      env.Store32(a + i * kPageSize, static_cast<u32>(9000 + i));
    }
    const vaddr_t pressure = env.Mmap(64 * kPageSize);
    for (u64 i = 0; i < 64; ++i) {
      env.Store32(pressure + i * kPageSize, 1);
    }
    // Writeback must recover dirty pages even from swap.
    ASSERT_EQ(env.Munmap(a), 0);
    for (u64 i = 0; i < 16; ++i) {
      u32 w = 0;
      env.Lseek(fd, static_cast<i64>(i * kPageSize));
      env.ReadBuf(fd, std::as_writable_bytes(std::span<u32>(&w, 1)));
      EXPECT_EQ(w, 9000 + i) << "page " << i;
    }
  });
}

TEST(MmapFile, RejectsNonRegularFiles) {
  Kernel k;
  RunAsProcess(k, [&](Env& env) {
    int rd = -1, wr = -1;
    ASSERT_EQ(env.Pipe(&rd, &wr), 0);
    EXPECT_EQ(env.MmapFile(rd, 0, kPageSize, false), 0u);
    EXPECT_EQ(env.LastError(), Errno::kEINVAL);
    EXPECT_EQ(env.MmapFile(77, 0, kPageSize, false), 0u);
    EXPECT_EQ(env.LastError(), Errno::kEBADF);
  });
}

}  // namespace
}  // namespace sg
