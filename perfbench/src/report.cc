#include "src/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

// Full-precision rendering of a double for JSON.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";  // rejected by run.py
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::optional<double> Samples::Percentile(double p) const {
  const double n = double(v_.size());
  if (n == 0 || n * (1 - p) < kMinSamplesBeyond) return std::nullopt;
  std::vector<double> s = v_;
  const double pos = p * (n - 1);
  const size_t lo = size_t(std::floor(pos));
  std::nth_element(s.begin(), s.begin() + lo, s.end());
  const double a = s[lo];
  if (lo + 1 >= s.size()) return a;
  const double b = *std::min_element(s.begin() + lo + 1, s.end());
  return a + (b - a) * (pos - double(lo));
}

void Report::Add(std::string name, double value, std::string unit,
                 uint64_t samples, std::string note) {
  metrics_.push_back(Metric{std::move(name), std::move(unit), value, samples,
                            true, std::move(note)});
}

void Report::AddPercentile(std::string name, const Samples& s, double p,
                           std::string unit) {
  auto v = s.Percentile(p);
  if (v) {
    Add(std::move(name), *v, std::move(unit), s.size());
    return;
  }
  char note[96];
  std::snprintf(note, sizeof(note),
                "refused: %zu samples, fewer than %.0f beyond p%g", s.size(),
                kMinSamplesBeyond, p * 100);
  metrics_.push_back(
      Metric{std::move(name), std::move(unit), 0, s.size(), false, note});
}

void Report::AddAbsent(std::string name, std::string unit, std::string note) {
  metrics_.push_back(
      Metric{std::move(name), std::move(unit), 0, 0, false, std::move(note)});
}

std::string Report::Human() const {
  std::string out;
  char line[256];
  for (const auto& m : metrics_) {
    if (m.present) {
      std::snprintf(line, sizeof(line), "  %-30s %14.4f %-8s (n=%llu)%s%s\n",
                    m.name.c_str(), m.value, m.unit.c_str(),
                    (unsigned long long)m.samples, m.note.empty() ? "" : "  ",
                    m.note.c_str());
    } else {
      std::snprintf(line, sizeof(line), "  %-30s %14s %-8s %s\n",
                    m.name.c_str(), "n/a", m.unit.c_str(), m.note.c_str());
    }
    out += line;
  }
  return out;
}

std::string Report::Json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& m : metrics_) {
    if (!m.present) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(m.name) + "\": {\"value\": " +
           JsonNumber(m.value) + ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  return out + "}";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}


}  // namespace perfbench
