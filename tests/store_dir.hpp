// Test helpers for decision-store directories (RuntimeOptions::
// decision_cache_dir): a pid-qualified scratch directory, and a writer
// that persists hand-built decisions the way a runtime does.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/decision_store.hpp"

namespace sapp {

/// `<temp>/<name>.<pid>`, emptied on construction and removed on
/// destruction, so concurrent test processes never share a store.
class StoreDir {
 public:
  explicit StoreDir(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               (name + "." + std::to_string(::getpid())))
                  .string()) {
    std::filesystem::remove_all(path_);
  }
  ~StoreDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  StoreDir(const StoreDir&) = delete;
  StoreDir& operator=(const StoreDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Persist `decisions` into the store directory `dir` (put + drain).
/// Returns the number of shard files written.
inline std::size_t write_decisions(const std::string& dir,
                                   std::vector<CachedDecision> decisions) {
  DecisionStoreOptions opt;
  opt.dir = dir;
  ShardedDecisionStore store(std::move(opt));
  (void)store.load();  // creates the directory
  for (auto& d : decisions) store.put(std::move(d));
  return store.drain();
}

}  // namespace sapp
