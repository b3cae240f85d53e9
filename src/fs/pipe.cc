#include "fs/pipe.h"

#include <cstring>

#include "base/check.h"
#include "sync/wait.h"

namespace sg {

Result<u64> Pipe::Read(std::byte* out, u64 len) {
  if (len == 0) {
    return u64{0};
  }
  bool slept = false;
  Result<u64> result = u64{0};
  {
    std::unique_lock<std::mutex> l(mu_);
    const Status st = BlockOn(cv_, l, SleepMode::kInterruptible, &slept,
                              [&] { return size_ > 0 || writers_ == 0; });
    if (!st.ok()) {
      result = st.error();
    } else if (size_ == 0) {
      result = u64{0};  // EOF: drained and no writers left
    } else {
      const u64 n = std::min(len, size_);
      for (u64 i = 0; i < n; ++i) {
        out[i] = buf_[(head_ + i) % kCapacity];
      }
      head_ = (head_ + n) % kCapacity;
      size_ -= n;
      result = n;
      cv_.notify_all();  // room for blocked writers
    }
  }
  FinishSleep(slept);
  return result;
}

Result<u64> Pipe::Write(const std::byte* src, u64 len) {
  u64 written = 0;
  bool slept_any = false;
  Status st = Status::Ok();
  {
    std::unique_lock<std::mutex> l(mu_);
    while (written < len) {
      bool slept = false;
      st = BlockOn(cv_, l, SleepMode::kInterruptible, &slept,
                   [&] { return size_ < kCapacity || readers_ == 0; });
      slept_any = slept_any || slept;
      if (!st.ok()) {
        break;
      }
      if (readers_ == 0) {
        st = Errno::kEPIPE;
        break;
      }
      const u64 n = std::min(len - written, kCapacity - size_);
      const u64 tail = (head_ + size_) % kCapacity;
      for (u64 i = 0; i < n; ++i) {
        buf_[(tail + i) % kCapacity] = src[written + i];
      }
      size_ += n;
      written += n;
      cv_.notify_all();  // data for blocked readers
    }
  }
  FinishSleep(slept_any);
  if (written > 0) {
    return written;  // partial write beats the error, like the real kernel
  }
  if (!st.ok()) {
    return st.error();
  }
  return written;
}

void Pipe::AddReader() {
  std::lock_guard<std::mutex> l(mu_);
  ++readers_;
}

void Pipe::AddWriter() {
  std::lock_guard<std::mutex> l(mu_);
  ++writers_;
}

void Pipe::RemoveReader() {
  {
    std::lock_guard<std::mutex> l(mu_);
    SG_CHECK(readers_ > 0);
    --readers_;
  }
  cv_.notify_all();  // writers must learn about EPIPE
}

void Pipe::RemoveWriter() {
  {
    std::lock_guard<std::mutex> l(mu_);
    SG_CHECK(writers_ > 0);
    --writers_;
  }
  cv_.notify_all();  // readers must learn about EOF
}

u64 Pipe::BytesBuffered() const {
  std::lock_guard<std::mutex> l(mu_);
  return size_;
}

}  // namespace sg
