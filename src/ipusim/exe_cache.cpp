#include "ipusim/exe_cache.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

namespace repro::ipu {
namespace {

namespace fs = std::filesystem;

std::string KeyHex(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

// Temp names must be unique per writer: two processes (or threads) saving
// the same key through a shared fixed ".tmp" name can interleave their
// writes and rename a torn artifact into place. pid + a process-local
// counter makes every in-flight write its own file; the final rename stays
// the one atomic publish point.
std::string UniqueTmpSuffix() {
  static std::atomic<std::uint64_t> counter{0};
  char buf[48];
  std::snprintf(buf, sizeof(buf), ".tmp.%ld.%llu",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(
                    counter.fetch_add(1, std::memory_order_relaxed)));
  return buf;
}

}  // namespace

ExeCache::ExeCache(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) return;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    std::fprintf(stderr,
                 "ExeCache: cannot create '%s' (%s); caching in memory only\n",
                 dir_.c_str(), ec.message().c_str());
    dir_.clear();
  }
}

std::uint64_t ExeCache::KeyOf(const Graph& graph, const Program& program,
                              const CompileOptions& options) {
  // Format version first: a layout bump invalidates every on-disk entry.
  const std::uint8_t head[] = {
      static_cast<std::uint8_t>(kExecutableFormatVersion),
      static_cast<std::uint8_t>(options.allow_oversubscription ? 1 : 0),
      static_cast<std::uint8_t>(options.fuse_compute_sets ? 1 : 0),
      static_cast<std::uint8_t>(options.reuse_variable_memory ? 1 : 0)};
  // Graph bytes embed the IpuArch fingerprint and all tile mappings (the
  // tile-slice size); trace options are deliberately not hashed.
  return Fnv1a64(graph, program, Fnv1a64(head));
}

std::string ExeCache::PathFor(std::uint64_t key) const {
  return dir_ + "/" + KeyHex(key) + ".ipuexe";
}

StatusOr<std::shared_ptr<const Executable>> ExeCache::GetOrCompile(
    const Graph& graph, const Program& program,
    const CompileOptions& options) {
  // A traced compile is never served from (or stored into) the cache: the
  // compile-pass spans are part of the trace's output contract, and a hit
  // would silently drop them. Trace options are excluded from the key for
  // the same reason -- they change observability, not the artifact.
  if (options.tracer != nullptr) {
    StatusOr<Executable> compiled = Compile(graph, program, options);
    if (!compiled.ok()) return compiled.status();
    return std::make_shared<const Executable>(compiled.take());
  }

  const std::uint64_t key = KeyOf(graph, program, options);

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = memory_.find(key);
    if (it != memory_.end()) {
      ++stats_.memory_hits;
      return it->second;
    }
  }

  if (!dir_.empty()) {
    StatusOr<Executable> loaded = Executable::Load(PathFor(key));
    if (loaded.ok()) {
      auto exe = std::make_shared<const Executable>(loaded.take());
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.disk_hits;
      memory_.emplace(key, exe);
      return exe;
    }
    // Missing file is the common cold-start case; anything else (corrupt,
    // version mismatch) is also just a miss -- recompiling overwrites it.
  }

  StatusOr<Executable> compiled = Compile(graph, program, options);
  if (!compiled.ok()) return compiled.status();
  auto exe = std::make_shared<const Executable>(compiled.take());

  bool store_to_disk = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    memory_.emplace(key, exe);
    store_to_disk = !dir_.empty();
  }
  if (store_to_disk) {
    // Unique tmp + rename so a concurrent reader never sees a partial
    // artifact and concurrent writers never share a tmp file.
    const std::string final_path = PathFor(key);
    const std::string tmp_path = final_path + UniqueTmpSuffix();
    Status saved = exe->Save(tmp_path);
    if (saved.ok()) {
      std::error_code ec;
      fs::rename(tmp_path, final_path, ec);
      if (!ec) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.disk_stores;
      } else {
        saved = Status::InvalidArgument(ec.message());
      }
    }
    if (!saved.ok()) {
      std::fprintf(stderr, "ExeCache: store to '%s' failed: %s\n",
                   final_path.c_str(), saved.message().c_str());
      std::error_code ec;
      fs::remove(tmp_path, ec);
    }
  }
  return exe;
}

ExeCacheStats ExeCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace repro::ipu
