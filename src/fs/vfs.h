// Vfs — the filesystem facade the syscall layer drives: path resolution
// relative to a process's (current, root) directory pair, open/creat with
// umask application, link/unlink/mkdir, pipes, and file I/O with ulimit
// enforcement.
//
// The share-group resources PR_SDIR (cwd/root), PR_SUMASK and PR_SULIMIT
// all parameterize calls here: the proc layer passes its (possibly
// group-synchronized) copies in, so the VFS itself stays group-agnostic.
#ifndef SRC_FS_VFS_H_
#define SRC_FS_VFS_H_

#include <string>
#include <string_view>
#include <utility>

#include "base/result.h"
#include "base/types.h"
#include "fs/file.h"
#include "fs/inode.h"
#include "fs/pipe.h"

namespace sg {

// Identity used for permission checks (effective ids; PR_SID shares these).
struct Cred {
  uid_t uid = 0;
  gid_t gid = 0;
};

// lseek whence values.
enum class SeekWhence { kSet, kCur, kEnd };

class Vfs {
 public:
  Vfs(u32 max_inodes, u32 max_files);
  ~Vfs();
  Vfs(const Vfs&) = delete;
  Vfs& operator=(const Vfs&) = delete;

  InodeTable& inodes() { return inodes_; }
  FileTable& files() { return files_; }

  // The filesystem root ("/"). Callers Iget their own references; the last
  // put, in ~Vfs, frees the tree.
  Inode* root() { return root_; }

  // Resolves `path` to an inode, returning a COUNTED reference (caller must
  // Iput). Absolute paths start at `rootdir`, relative ones at `cwd`; every
  // traversed directory requires search (execute) permission for `cred`.
  Result<Inode*> Namei(Inode* cwd, Inode* rootdir, const Cred& cred, std::string_view path);

  // Resolves to the parent directory of the path's final component,
  // returning a counted reference and the leaf name.
  Result<Inode*> NameiParent(Inode* cwd, Inode* rootdir, const Cred& cred, std::string_view path,
                             std::string* leaf);

  // open(2): returns a counted open-file entry. kOpenCreat creates with
  // `mode & ~umask` (the PR_SUMASK-shared value); kOpenExcl makes an
  // existing file an error. kOpenTrunc is left to TruncateOnOpen.
  Result<OpenFile*> Open(Inode* cwd, Inode* rootdir, const Cred& cred, std::string_view path,
                         u32 flags, mode_t mode, mode_t umask);
  // The kOpenTrunc half of open(2): empties `f`'s file if it was opened
  // with kOpenTrunc and is regular. Split from Open so the syscall layer
  // truncates only once the descriptor is installed: an open refused after
  // Open succeeded leaves the file's bytes alone.
  void TruncateOnOpen(OpenFile& f);

  // Each namespace edit holds only the directory it changes, and changes
  // the entry and the link it carries in one hold of its lock: of two
  // removals of one name the second gets kENOENT.
  Status Mkdir(Inode* cwd, Inode* rootdir, const Cred& cred, std::string_view path, mode_t mode,
               mode_t umask);
  Status Link(Inode* cwd, Inode* rootdir, const Cred& cred, std::string_view existing,
              std::string_view newpath);
  Status Unlink(Inode* cwd, Inode* rootdir, const Cred& cred, std::string_view path);
  Status Rmdir(Inode* cwd, Inode* rootdir, const Cred& cred, std::string_view path);

  // pipe(2): returns {read end, write end}, both counted.
  Result<std::pair<OpenFile*, OpenFile*>> MakePipe();

  // I/O on open files. Write enforces `ulimit` (maximum file size in bytes,
  // the PR_SULIMIT-shared value) and returns kEFBIG when nothing fits.
  Result<u64> ReadFile(OpenFile& f, std::byte* out, u64 len);
  Result<u64> WriteFile(OpenFile& f, const std::byte* src, u64 len, u64 ulimit);
  Result<u64> Seek(OpenFile& f, i64 offset, SeekWhence whence);

 private:
  // Unlink (`dir` false) and Rmdir (`dir` true).
  Status Remove(Inode* cwd, Inode* rootdir, const Cred& cred, std::string_view path, bool dir);

  InodeTable inodes_;
  FileTable files_;
  Inode* root_ = nullptr;
};

}  // namespace sg

#endif  // SRC_FS_VFS_H_
