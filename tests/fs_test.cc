// Unit tests for fs/: path resolution, open/creat with umask, permissions,
// link/unlink/mkdir/rmdir, file I/O with ulimit, seek, pipes, and the
// reference-counting discipline the share block depends on.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <thread>

#include "fs/vfs.h"

namespace sg {
namespace {

std::span<const std::byte> Bytes(std::string_view s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

struct VfsFixture : ::testing::Test {
  Vfs vfs{256, 256};
  Cred root_cred{0, 0};
  Inode* root() { return vfs.root(); }

  Result<OpenFile*> Open(std::string_view path, u32 flags, mode_t mode = 0644,
                         mode_t umask = 0, Cred cred = {0, 0}) {
    return vfs.Open(root(), root(), cred, path, flags, mode, umask);
  }

  // Opens and closes again, for tests that need only open(2)'s effect
  // (creation, a permission check).
  Status Touch(std::string_view path, u32 flags, mode_t mode = 0644, mode_t umask = 0,
               Cred cred = {0, 0}) {
    auto f = Open(path, flags, mode, umask, cred);
    if (f.ok()) {
      vfs.files().Release(f.value());
    }
    return f.status();
  }

  // The table owns no entries, so a file a test forgets to close leaks.
  void TearDown() override { EXPECT_EQ(vfs.files().Count(), 0u); }
};

TEST_F(VfsFixture, CreateWriteReadRoundTrip) {
  auto f = Open("/a", kOpenWrite | kOpenCreat);
  ASSERT_TRUE(f.ok());
  auto s = Bytes("hello world");
  EXPECT_EQ(vfs.WriteFile(*f.value(), s.data(), s.size(), 1 << 20).value(), s.size());
  vfs.files().Release(f.value());

  auto g = Open("/a", kOpenRead);
  ASSERT_TRUE(g.ok());
  std::byte buf[32];
  EXPECT_EQ(vfs.ReadFile(*g.value(), buf, sizeof(buf)).value(), s.size());
  EXPECT_EQ(0, std::memcmp(buf, s.data(), s.size()));
  EXPECT_EQ(vfs.ReadFile(*g.value(), buf, sizeof(buf)).value(), 0u);  // EOF
  vfs.files().Release(g.value());
}

TEST_F(VfsFixture, NameiWalksDirectoriesAndDotDot) {
  ASSERT_TRUE(vfs.Mkdir(root(), root(), root_cred, "/d1", 0755, 0).ok());
  ASSERT_TRUE(vfs.Mkdir(root(), root(), root_cred, "/d1/d2", 0755, 0).ok());
  ASSERT_TRUE(Touch("/d1/d2/f", kOpenWrite | kOpenCreat).ok());
  auto ip = vfs.Namei(root(), root(), root_cred, "/d1/d2/../d2/./f");
  ASSERT_TRUE(ip.ok());
  Iput(ip.value());
  // ".." above the root stays at the root (chroot jail behaviour).
  auto top = vfs.Namei(root(), root(), root_cred, "/../../d1");
  ASSERT_TRUE(top.ok());
  Iput(top.value());
  EXPECT_EQ(vfs.Namei(root(), root(), root_cred, "/nope/f").error(), Errno::kENOENT);
  EXPECT_EQ(vfs.Namei(root(), root(), root_cred, "/d1/d2/f/deeper").error(), Errno::kENOTDIR);
  EXPECT_EQ(vfs.Namei(root(), root(), root_cred, "").error(), Errno::kENOENT);
}

TEST_F(VfsFixture, UmaskAppliesOnCreate) {
  auto f = Open("/masked", kOpenWrite | kOpenCreat, 0777, /*umask=*/027);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value()->inode()->mode(), 0750);
  vfs.files().Release(f.value());
}

TEST_F(VfsFixture, ExclFailsOnExisting) {
  ASSERT_TRUE(Touch("/x", kOpenWrite | kOpenCreat).ok());
  EXPECT_EQ(Open("/x", kOpenWrite | kOpenCreat | kOpenExcl).error(), Errno::kEEXIST);
}

TEST_F(VfsFixture, TruncEmptiesFile) {
  auto f = Open("/t", kOpenWrite | kOpenCreat);
  auto s = Bytes("data");
  vfs.WriteFile(*f.value(), s.data(), s.size(), 1 << 20).value();
  auto g = Open("/t", kOpenWrite | kOpenTrunc);
  ASSERT_TRUE(g.ok());
  // Open leaves the bytes; the syscall layer truncates once the descriptor
  // is installed.
  EXPECT_EQ(g.value()->inode()->Size(), 4u);
  vfs.TruncateOnOpen(*f.value());  // opened without kOpenTrunc: no effect
  EXPECT_EQ(g.value()->inode()->Size(), 4u);
  vfs.TruncateOnOpen(*g.value());
  EXPECT_EQ(g.value()->inode()->Size(), 0u);
  vfs.files().Release(f.value());
  vfs.files().Release(g.value());
}

TEST_F(VfsFixture, PermissionChecks) {
  auto f = Open("/guarded", kOpenWrite | kOpenCreat, 0640);
  ASSERT_TRUE(f.ok());
  f.value()->inode()->set_owner(10, 20);
  // Owner (uid 10): read ok, write ok.
  EXPECT_TRUE(Touch("/guarded", kOpenRead, 0, 0, Cred{10, 99}).ok());
  EXPECT_TRUE(Touch("/guarded", kOpenWrite, 0, 0, Cred{10, 99}).ok());
  // Group (gid 20): read only.
  EXPECT_TRUE(Touch("/guarded", kOpenRead, 0, 0, Cred{11, 20}).ok());
  EXPECT_EQ(Open("/guarded", kOpenWrite, 0, 0, Cred{11, 20}).error(), Errno::kEACCES);
  // Other: nothing.
  EXPECT_EQ(Open("/guarded", kOpenRead, 0, 0, Cred{11, 21}).error(), Errno::kEACCES);
  // Root: everything.
  EXPECT_TRUE(Touch("/guarded", kOpenRdwr, 0, 0, Cred{0, 0}).ok());
  vfs.files().Release(f.value());
}

TEST_F(VfsFixture, DirectorySearchPermission) {
  ASSERT_TRUE(vfs.Mkdir(root(), root(), root_cred, "/locked", 0700, 0).ok());
  auto dir = vfs.Namei(root(), root(), root_cred, "/locked");
  dir.value()->set_owner(10, 10);
  Iput(dir.value());
  ASSERT_TRUE(Touch("/locked/f", kOpenWrite | kOpenCreat, 0644, 0, Cred{10, 10}).ok());
  EXPECT_EQ(vfs.Namei(root(), root(), Cred{11, 11}, "/locked/f").error(), Errno::kEACCES);
}

TEST_F(VfsFixture, LinkUnlinkAndNlink) {
  auto f = Open("/orig", kOpenWrite | kOpenCreat);
  ASSERT_TRUE(f.ok());
  Inode* ip = f.value()->inode();
  EXPECT_EQ(ip->nlink(), 1u);
  ASSERT_TRUE(vfs.Link(root(), root(), root_cred, "/orig", "/alias").ok());
  EXPECT_EQ(ip->nlink(), 2u);
  ASSERT_TRUE(vfs.Unlink(root(), root(), root_cred, "/orig").ok());
  EXPECT_EQ(ip->nlink(), 1u);
  // Still reachable through the alias.
  auto alias = vfs.Namei(root(), root(), root_cred, "/alias");
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(alias.value(), ip);
  Iput(alias.value());
  ASSERT_TRUE(vfs.Unlink(root(), root(), root_cred, "/alias").ok());
  EXPECT_EQ(vfs.Namei(root(), root(), root_cred, "/alias").error(), Errno::kENOENT);
  // The open reference keeps the data alive until released.
  auto s = Bytes("still-writable");
  EXPECT_EQ(vfs.WriteFile(*f.value(), s.data(), s.size(), 1 << 20).value(), s.size());
  const u64 inodes_before = vfs.inodes().Count();
  vfs.files().Release(f.value());
  EXPECT_EQ(vfs.inodes().Count(), inodes_before - 1);  // now truly gone
}

TEST_F(VfsFixture, RmdirSemantics) {
  ASSERT_TRUE(vfs.Mkdir(root(), root(), root_cred, "/dd", 0755, 0).ok());
  ASSERT_TRUE(Touch("/dd/f", kOpenWrite | kOpenCreat).ok());
  EXPECT_EQ(vfs.Rmdir(root(), root(), root_cred, "/dd").error(), Errno::kENOTEMPTY);
  ASSERT_TRUE(vfs.Unlink(root(), root(), root_cred, "/dd/f").ok());
  EXPECT_TRUE(vfs.Rmdir(root(), root(), root_cred, "/dd").ok());
  EXPECT_EQ(vfs.Rmdir(root(), root(), root_cred, "/dd").error(), Errno::kENOENT);
  EXPECT_EQ(vfs.Unlink(root(), root(), root_cred, "/").error(), Errno::kEINVAL);
}

TEST_F(VfsFixture, SeekSemantics) {
  auto f = Open("/s", kOpenRdwr | kOpenCreat);
  auto s = Bytes("0123456789");
  vfs.WriteFile(*f.value(), s.data(), s.size(), 1 << 20).value();
  EXPECT_EQ(vfs.Seek(*f.value(), 2, SeekWhence::kSet).value(), 2u);
  std::byte b[1];
  vfs.ReadFile(*f.value(), b, 1).value();
  EXPECT_EQ(static_cast<char>(b[0]), '2');
  EXPECT_EQ(vfs.Seek(*f.value(), -1, SeekWhence::kEnd).value(), 9u);
  EXPECT_EQ(vfs.Seek(*f.value(), 5, SeekWhence::kCur).value(), 14u);  // past EOF ok
  EXPECT_EQ(vfs.Seek(*f.value(), -100, SeekWhence::kCur).error(), Errno::kEINVAL);
  // Writing past EOF zero-fills the hole.
  vfs.Seek(*f.value(), 14, SeekWhence::kSet).value();
  vfs.WriteFile(*f.value(), s.data(), 1, 1 << 20).value();
  EXPECT_EQ(f.value()->inode()->Size(), 15u);
  vfs.files().Release(f.value());
}

TEST_F(VfsFixture, AppendAlwaysWritesAtEnd) {
  auto f = Open("/log", kOpenWrite | kOpenCreat | kOpenAppend);
  auto a = Bytes("aa");
  auto b = Bytes("bb");
  vfs.WriteFile(*f.value(), a.data(), a.size(), 1 << 20).value();
  vfs.Seek(*f.value(), 0, SeekWhence::kSet).value();
  vfs.WriteFile(*f.value(), b.data(), b.size(), 1 << 20).value();
  EXPECT_EQ(f.value()->inode()->Size(), 4u);
  vfs.files().Release(f.value());
}

TEST_F(VfsFixture, UlimitTruncatesWrites) {
  auto f = Open("/lim", kOpenWrite | kOpenCreat);
  std::vector<std::byte> big(100, std::byte{1});
  EXPECT_EQ(vfs.WriteFile(*f.value(), big.data(), big.size(), 60).value(), 60u);
  EXPECT_EQ(vfs.WriteFile(*f.value(), big.data(), big.size(), 60).error(), Errno::kEFBIG);
  vfs.files().Release(f.value());
}

TEST_F(VfsFixture, PipeBlockingAndEof) {
  auto made = vfs.MakePipe();
  ASSERT_TRUE(made.ok());
  auto [rd, wr] = made.value();
  auto s = Bytes("ping");
  EXPECT_EQ(vfs.WriteFile(*wr, s.data(), s.size(), 1 << 20).value(), 4u);
  std::byte buf[8];
  EXPECT_EQ(vfs.ReadFile(*rd, buf, sizeof(buf)).value(), 4u);

  // Blocking read wakes when data arrives.
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    vfs.WriteFile(*wr, s.data(), 2, 1 << 20).value();
  });
  EXPECT_EQ(vfs.ReadFile(*rd, buf, sizeof(buf)).value(), 2u);
  writer.join();

  // EOF after the writer closes.
  vfs.files().Release(wr);
  EXPECT_EQ(vfs.ReadFile(*rd, buf, sizeof(buf)).value(), 0u);
  vfs.files().Release(rd);
}

TEST_F(VfsFixture, PipeWriteWithoutReadersFails) {
  auto made = vfs.MakePipe();
  auto [rd, wr] = made.value();
  vfs.files().Release(rd);
  auto s = Bytes("x");
  EXPECT_EQ(vfs.WriteFile(*wr, s.data(), 1, 1 << 20).error(), Errno::kEPIPE);
  vfs.files().Release(wr);
}

TEST_F(VfsFixture, PipeFullBlocksWriter) {
  auto made = vfs.MakePipe();
  auto [rd, wr] = made.value();
  std::vector<std::byte> fill(Pipe::kCapacity, std::byte{9});
  EXPECT_EQ(vfs.WriteFile(*wr, fill.data(), fill.size(), 1 << 20).value(), Pipe::kCapacity);
  std::atomic<bool> wrote{false};
  std::thread writer([&] {
    std::byte one{1};
    vfs.WriteFile(*wr, &one, 1, 1 << 20).value();
    wrote = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(wrote.load());
  std::byte buf[16];
  vfs.ReadFile(*rd, buf, sizeof(buf)).value();
  writer.join();
  EXPECT_TRUE(wrote.load());
  vfs.files().Release(rd);
  vfs.files().Release(wr);
}

TEST_F(VfsFixture, FdTableAllocLowestFirst) {
  FdTable fds;
  auto f = Open("/fd", kOpenWrite | kOpenCreat);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(fds.AllocSlot(f.value()).value(), 0);
  EXPECT_EQ(fds.AllocSlot(f.value()).value(), 1);
  fds.ClearSlot(0).value();
  EXPECT_EQ(fds.AllocSlot(f.value()).value(), 0);
  EXPECT_EQ(fds.OpenCount(), 2);
  EXPECT_EQ(fds.Get(5).error(), Errno::kEBADF);
  EXPECT_EQ(fds.Get(-1).error(), Errno::kEBADF);
  vfs.files().Release(f.value());  // the slots held the one reference
}

TEST_F(VfsFixture, FileTableRefCounting) {
  auto f = Open("/rc", kOpenWrite | kOpenCreat);
  ASSERT_TRUE(f.ok());
  OpenFile* file = f.value();
  EXPECT_EQ(vfs.files().RefCount(file), 1u);
  vfs.files().Hold(file);
  EXPECT_EQ(vfs.files().RefCount(file), 2u);
  vfs.files().Release(file);
  EXPECT_EQ(vfs.files().RefCount(file), 1u);
  EXPECT_EQ(vfs.files().Count(), 1u);
  vfs.files().Release(file);  // the zero crossing frees the entry
  EXPECT_EQ(vfs.files().Count(), 0u);
}

}  // namespace
}  // namespace sg
