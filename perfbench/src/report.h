// Exact percentiles over per-op samples and the metric report a run prints:
// one human-readable line per metric (value, unit, sample count) followed
// by a machine-readable JSON object.
#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile is only reported when at least this many samples lie
/// beyond it (p99 needs 1000 samples, p50 needs 20).
inline constexpr double kMinSamplesBeyond = 10;

/// Raw per-op samples; percentiles are exact order statistics (linear
/// interpolation between neighbours), not histogram bucket edges.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  size_t size() const { return v_.size(); }
  /// Quantile `p` in [0, 1]; nullopt when fewer than kMinSamplesBeyond
  /// samples lie beyond it.
  std::optional<double> Percentile(double p) const;

 private:
  std::vector<double> v_;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  /// Samples the value was computed from (ops, calls or runs).
  uint64_t samples = 0;
  /// False when the metric does not apply to the workload or a percentile
  /// had too few samples; `note` says which.
  bool present = true;
  std::string note;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           uint64_t samples, std::string note = "");
  /// Adds percentile `p` of `s`, or an absent entry when it is refused.
  void AddPercentile(std::string name, const Samples& s, double p,
                     std::string unit);
  void AddAbsent(std::string name, std::string unit, std::string note);

  /// "  name  value unit  (n=samples)" lines, absent metrics as "n/a".
  std::string Human() const;
  /// {"name": {"value": v, "unit": u}, ...} over present metrics only.
  std::string Json() const;

 private:
  std::vector<Metric> metrics_;
};

/// Ratio that reads 0 when the denominator is 0 (a per-layer ratio over an
/// op kind the workload does not issue).
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
