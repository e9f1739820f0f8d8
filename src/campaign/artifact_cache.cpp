#include "campaign/artifact_cache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/controller_io.hpp"
#include "util/durable.hpp"

namespace solsched::campaign {

ArtifactCache::ArtifactCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    throw std::runtime_error("ArtifactCache: cannot create " + dir_ + ": " +
                             ec.message());
}

std::string ArtifactCache::path_of(std::uint64_t key) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx",
                static_cast<unsigned long long>(key));
  return dir_ + "/" + name + ".controller";
}

bool ArtifactCache::load(std::uint64_t key, core::TrainedController* out) const {
  const std::string path = path_of(key);
  std::ifstream file(path);
  if (!file) return false;
  std::ostringstream text;
  text << file.rdbuf();
  try {
    *out = core::deserialize_controller(text.str());
  } catch (const std::exception& e) {
    // A corrupt entry is a miss, not a fatal error: the caller retrains and
    // store() replaces the file atomically.
    std::fprintf(stderr, "solsched-campaign: discarding corrupt artifact %s (%s)\n",
                 path.c_str(), e.what());
    return false;
  }
  return true;
}

void ArtifactCache::store(std::uint64_t key,
                          const core::TrainedController& controller) const {
  util::atomic_replace(path_of(key), core::serialize_controller(controller));
}

}  // namespace solsched::campaign
