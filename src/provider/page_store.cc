#include "provider/page_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/string_util.h"

namespace blobseer::provider {

namespace {

class MemoryPageStore : public PageStore {
 public:
  Status Put(const PageId& id, Slice data) override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.writes++;
    auto it = pages_.find(id);
    if (it != pages_.end()) {
      if (it->second.size() == data.size()) return Status::OK();
      return Status::AlreadyExists("page object rewritten with new content: " +
                                   id.ToString());
    }
    pages_.emplace(id, data.ToString());
    stats_.pages++;
    stats_.bytes += data.size();
    return Status::OK();
  }

  Status Read(const PageId& id, uint64_t offset, uint64_t len,
              std::string* out) override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.reads++;
    auto it = pages_.find(id);
    if (it == pages_.end()) return Status::NotFound("page " + id.ToString());
    BS_RETURN_NOT_OK(CheckReadRange(it->second.size(), offset, &len));
    out->assign(it->second.data() + offset, len);
    return Status::OK();
  }

  Status Delete(const PageId& id) override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.deletes++;
    auto it = pages_.find(id);
    if (it != pages_.end()) {
      stats_.bytes -= it->second.size();
      stats_.pages--;
      pages_.erase(it);
    }
    return Status::OK();
  }

  PageStoreStats GetStats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<PageId, std::string> pages_;
  PageStoreStats stats_;
};

class NullPageStore : public PageStore {
 public:
  Status Put(const PageId& id, Slice data) override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.writes++;
    auto [it, inserted] = sizes_.emplace(id, data.size());
    if (!inserted && it->second != data.size())
      return Status::AlreadyExists("page object rewritten");
    if (inserted) {
      stats_.pages++;
      stats_.bytes += data.size();
    }
    return Status::OK();
  }

  Status Read(const PageId& id, uint64_t offset, uint64_t len,
              std::string* out) override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.reads++;
    auto it = sizes_.find(id);
    if (it == sizes_.end()) return Status::NotFound("page " + id.ToString());
    BS_RETURN_NOT_OK(CheckReadRange(it->second, offset, &len));
    out->assign(len, '\0');
    return Status::OK();
  }

  Status Delete(const PageId& id) override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.deletes++;
    auto it = sizes_.find(id);
    if (it != sizes_.end()) {
      stats_.bytes -= it->second;
      stats_.pages--;
      sizes_.erase(it);
    }
    return Status::OK();
  }

  PageStoreStats GetStats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<PageId, uint64_t> sizes_;
  PageStoreStats stats_;
};

class FilePageStore : public PageStore {
 public:
  explicit FilePageStore(std::string dir) : dir_(std::move(dir)) {
    // Create the full path (the provider directory may be nested, e.g.
    // <cluster-dir>/provider-3), then the 256 fan-out buckets.
    std::string partial;
    for (const char c : dir_ + "/") {
      if (c == '/' && !partial.empty()) ::mkdir(partial.c_str(), 0755);
      partial.push_back(c);
    }
    for (int i = 0; i < 256; i++) {
      std::string bucket = StrFormat("%s/%02x", dir_.c_str(), i);
      if (::mkdir(bucket.c_str(), 0755) != 0 && errno == EEXIST) {
        RecoverBucket(bucket);
      }
    }
  }

  /// Reopening an existing directory: seed pages/bytes from the page files
  /// already on disk so stats reflect reality, and sweep stale temp files
  /// left by a crash mid-Put.
  void RecoverBucket(const std::string& bucket) {
    DIR* d = ::opendir(bucket.c_str());
    if (!d) return;
    while (struct dirent* ent = ::readdir(d)) {
      std::string name = ent->d_name;
      std::string path = bucket + "/" + name;
      if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
        ::remove(path.c_str());
        continue;
      }
      if (name.size() < 5 || name.compare(name.size() - 5, 5, ".page") != 0)
        continue;
      struct stat st;
      if (::stat(path.c_str(), &st) != 0) continue;
      stats_.pages++;
      stats_.bytes += static_cast<uint64_t>(st.st_size);
    }
    ::closedir(d);
  }

  Status Put(const PageId& id, Slice data) override {
    std::string path = PathFor(id);
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.writes++;
    }
    // Immutability: if the file exists with the same size, treat as
    // idempotent replay — but the prior attempt's directory fsync may have
    // failed after the rename, so re-issue it before acking durability.
    struct stat st;
    if (::stat(path.c_str(), &st) == 0) {
      if (static_cast<uint64_t>(st.st_size) != data.size())
        return Status::AlreadyExists("page file exists: " + path);
      Status dir_sync = SyncDirOf(path);
      std::lock_guard<std::mutex> lock(mu_);
      stats_.syncs++;
      return dir_sync;
    }
    // Durable publish: write + fsync the temp file, rename it into place,
    // then fsync the bucket directory so the new directory entry survives
    // power loss too (temp+rename alone only orders the data, it does not
    // persist the name).
    std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return Status::IOError("open " + tmp + ": " + strerror(errno));
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      ssize_t n = ::write(fd, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        ::remove(tmp.c_str());
        return Status::IOError("write " + tmp + ": " + strerror(errno));
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    if (::fsync(fd) != 0) {
      ::close(fd);
      ::remove(tmp.c_str());
      return Status::IOError("fsync " + tmp + ": " + strerror(errno));
    }
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      ::remove(tmp.c_str());
      return Status::IOError("rename " + path);
    }
    Status dir_sync = SyncDirOf(path);
    std::lock_guard<std::mutex> lock(mu_);
    stats_.syncs += 2;  // data file + bucket directory
    stats_.pages++;
    stats_.bytes += data.size();
    return dir_sync;
  }

  Status Read(const PageId& id, uint64_t offset, uint64_t len,
              std::string* out) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.reads++;
    }
    std::string path = PathFor(id);
    FILE* f = ::fopen(path.c_str(), "rb");
    if (!f) return Status::NotFound("page " + id.ToString());
    ::fseek(f, 0, SEEK_END);
    uint64_t size = static_cast<uint64_t>(::ftell(f));
    Status s = CheckReadRange(size, offset, &len);
    if (!s.ok()) {
      ::fclose(f);
      return s;
    }
    ::fseek(f, static_cast<long>(offset), SEEK_SET);
    out->resize(len);
    size_t n = len == 0 ? 0 : ::fread(out->data(), 1, len, f);
    ::fclose(f);
    if (n != len) return Status::IOError("short read: " + path);
    return Status::OK();
  }

  Status Delete(const PageId& id) override {
    std::string path = PathFor(id);
    struct stat st;
    uint64_t size = ::stat(path.c_str(), &st) == 0
                        ? static_cast<uint64_t>(st.st_size)
                        : 0;
    bool existed = ::remove(path.c_str()) == 0;
    // The unlink must survive power loss too, or version-GC'd pages
    // resurrect on reopen. Synced even when the file is already gone: a
    // retried Delete must cover a prior attempt whose unlink landed but
    // whose directory flush failed.
    Status dir_sync = SyncDirOf(path);
    std::lock_guard<std::mutex> lock(mu_);
    stats_.deletes++;
    stats_.syncs++;
    if (existed) {
      stats_.pages--;
      stats_.bytes -= size;
    }
    return dir_sync;
  }

  PageStoreStats GetStats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  bool touches_disk() const override { return true; }

 private:
  static Status SyncDirOf(const std::string& path) {
    std::string dir = path.substr(0, path.rfind('/'));
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
      return Status::IOError("open dir " + dir + ": " + strerror(errno));
    int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0)
      return Status::IOError("fsync dir " + dir + ": " + strerror(errno));
    return Status::OK();
  }

  std::string PathFor(const PageId& id) const {
    return StrFormat("%s/%02x/%016llx%016llx.page", dir_.c_str(),
                     static_cast<int>(id.lo & 0xff),
                     static_cast<unsigned long long>(id.hi),
                     static_cast<unsigned long long>(id.lo));
  }

  std::string dir_;
  mutable std::mutex mu_;
  PageStoreStats stats_;
};

}  // namespace

std::unique_ptr<PageStore> MakeMemoryPageStore() {
  return std::make_unique<MemoryPageStore>();
}
std::unique_ptr<PageStore> MakeFilePageStore(const std::string& dir) {
  return std::make_unique<FilePageStore>(dir);
}
std::unique_ptr<PageStore> MakeNullPageStore() {
  return std::make_unique<NullPageStore>();
}

}  // namespace blobseer::provider
