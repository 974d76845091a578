#include "obs/manifest.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace silo::obs {

const char* git_describe() {
#ifdef SILO_GIT_DESCRIBE
  return SILO_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

namespace {

void append_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void append_double(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

}  // namespace

std::string manifest_json(const RunManifest& m,
                          const std::vector<MetricSample>& metrics) {
  std::ostringstream os;
  os << "{\n  \"manifest_version\": " << kManifestVersion << ",\n  \"bench\": ";
  append_escaped(os, m.bench);
  os << ",\n  \"git_describe\": ";
  append_escaped(os, m.git);
  os << ",\n  \"seed\": " << m.seed << ",\n  \"topology\": {";
  for (std::size_t i = 0; i < m.topology.size(); ++i) {
    os << (i ? ", " : "");
    append_escaped(os, m.topology[i].first);
    os << ": " << m.topology[i].second;
  }
  os << "},\n  \"params\": {";
  for (std::size_t i = 0; i < m.params.size(); ++i) {
    os << (i ? ", " : "");
    append_escaped(os, m.params[i].first);
    os << ": ";
    append_escaped(os, m.params[i].second);
  }
  os << "},\n  \"metrics\": [";
  bool first = true;
  for (const MetricSample& s : metrics) {
    os << (first ? "" : ",") << "\n    {\"name\": ";
    first = false;
    append_escaped(os, s.name);
    os << ", \"type\": \"" << metric_type_name(s.type) << "\", \"unit\": ";
    append_escaped(os, s.unit);
    os << ", \"owner\": ";
    append_escaped(os, s.owner);
    if (s.type == MetricType::kHistogram && s.hist) {
      os << ", \"count\": " << s.hist->count << ", \"sum\": ";
      append_double(os, s.hist->sum);
      os << ", \"bounds\": [";
      for (std::size_t i = 0; i < s.hist->bounds.size(); ++i) {
        os << (i ? "," : "");
        append_double(os, s.hist->bounds[i]);
      }
      os << "], \"counts\": [";
      for (std::size_t i = 0; i < s.hist->counts.size(); ++i)
        os << (i ? "," : "") << s.hist->counts[i];
      os << "]";
    } else {
      os << ", \"value\": " << s.value;
    }
    os << "}";
  }
  if (!first) os << "\n  ";
  os << "]\n}\n";
  return os.str();
}

std::string manifest_json(const RunManifest& m, const MetricsRegistry* metrics) {
  return manifest_json(m, metrics ? metrics->snapshot()
                                  : std::vector<MetricSample>{});
}

bool write_manifest(const std::string& path, const RunManifest& m,
                    const std::vector<MetricSample>& metrics) {
  std::ofstream f(path);
  if (!f) return false;
  f << manifest_json(m, metrics);
  return static_cast<bool>(f);
}

bool write_manifest(const std::string& path, const RunManifest& m,
                    const MetricsRegistry* metrics) {
  return write_manifest(path, m,
                        metrics ? metrics->snapshot()
                                : std::vector<MetricSample>{});
}

}  // namespace silo::obs
