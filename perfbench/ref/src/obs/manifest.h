// Versioned run manifest: the machine-readable record a bench writes via
// --metrics-json. Captures enough to re-run and to trust a number pulled
// from CI artifacts months later: bench name, seed, topology shape, the
// build's `git describe`, and a full metrics snapshot.
//
// Schema (manifest_version 1):
//   {
//     "manifest_version": 1,
//     "bench": "<binary name>",
//     "git_describe": "<git describe --always --dirty at configure time>",
//     "seed": <uint64>,
//     "topology": { "<key>": <int64>, ... },
//     "params":   { "<key>": "<string>", ... },
//     "metrics": [ { "name": ..., "type": ..., "unit": ..., "owner": ...,
//                    "value": <int64> }                       // counter/gauge
//                  { ..., "count": n, "sum": s,
//                    "bounds": [...], "counts": [...] }, ... ] // histogram
//   }
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace silo::obs {

inline constexpr int kManifestVersion = 1;

/// `git describe --always --dirty` captured at configure time, or
/// "unknown" when the build was configured outside a git checkout.
const char* git_describe();

struct RunManifest {
  std::string bench;
  std::uint64_t seed = 0;
  std::string git = git_describe();  ///< overridable for golden tests
  std::vector<std::pair<std::string, std::int64_t>> topology;
  std::vector<std::pair<std::string, std::string>> params;
};

/// Render from an already-taken snapshot — the form benches use when the
/// ClusterSim (and its registry) is gone by the time the manifest is
/// written. Samples own their histogram state, so this is always safe.
std::string manifest_json(const RunManifest& m,
                          const std::vector<MetricSample>& metrics);
std::string manifest_json(const RunManifest& m, const MetricsRegistry* metrics);

/// Renders and writes the manifest; returns false on I/O failure.
bool write_manifest(const std::string& path, const RunManifest& m,
                    const std::vector<MetricSample>& metrics);
bool write_manifest(const std::string& path, const RunManifest& m,
                    const MetricsRegistry* metrics);

}  // namespace silo::obs
