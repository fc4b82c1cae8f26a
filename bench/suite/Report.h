//===- Report.h - Metrics, statistics and spans of the benchmark -*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement plumbing of cswitch_benchmark: order statistics, the
/// in-memory span log of traced runs (dumped as Chrome-trace JSON, with
/// self times), and the Report every workload fills — named metrics
/// with units, correctness counts, and the result envelope.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_BENCH_SUITE_REPORT_H
#define CSWITCH_BENCH_SUITE_REPORT_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cswitch {
namespace suite {

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linearly interpolated quantile \p Q in [0, 1] of \p Values (0 when
/// empty).
double quantile(std::vector<double> Values, double Q);

inline double median(const std::vector<double> &Values) {
  return quantile(Values, 0.5);
}

/// Mean of the samples between the first and third quartile: a centre
/// as robust as the median that does not snap to the clock's integer
/// nanoseconds.
double interquartileMean(std::vector<double> Values);

/// Geometric mean of positive values (0 when empty).
double geomean(const std::vector<double> &Values);

/// \p Num / \p Den, 0 when \p Den is 0.
inline double ratio(uint64_t Num, uint64_t Den) {
  return Den ? double(Num) / double(Den) : 0.0;
}

/// \p Values divided by their median. Applied to the ratios framework ÷
/// Original of adjacent pairs, it gives each framework batch's cost
/// relative to a typical one with machine-wide slow phases cancelled
/// (they hit both halves of a pair); the 90th percentile of the result
/// is the tail factor of batch_p90_ms.
std::vector<double> relativeToMedian(std::vector<double> Values);

/// Batch cost at the machine's uncontended speed: the geomean over
/// inputs of the 10th percentile of each input's batch times (empty
/// groups are skipped). A shared virtual machine runs everything
/// 1.4-1.8x slower for seconds to minutes at a time; the 10th
/// percentile finds the uncontended cost as long as a tenth of the run
/// was uncontended, where a plain median moves whenever half of it was
/// not. Applied to the Original batches and multiplied by the median
/// framework ÷ Original pair ratio, it gives batch_ms.
double uncontendedMs(const std::vector<std::vector<double>> &MsByInput);

/// Seconds since an arbitrary steady epoch.
inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nanoseconds since an arbitrary steady epoch.
inline uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One recorded span. Parent is the index + 1 of the enclosing span, 0
/// for a root.
struct Span {
  const char *Name;
  uint64_t Start;
  uint64_t End;
  uint32_t Parent;
};

/// Bounded in-memory span log of one thread. Spans nest strictly
/// (begin/end pairs in stack order). Once full, further spans are
/// counted as dropped but still read the clock, so a full log costs
/// the traced code the same as a recording one.
class SpanLog {
public:
  explicit SpanLog(size_t Capacity);

  /// Opens a span; returns its id for end() (0 when dropped). \p Name
  /// must outlive the log (string literals).
  uint32_t begin(const char *Name);
  void end(uint32_t Id);

  size_t size() const { return Spans.size(); }
  uint64_t dropped() const { return Dropped; }
  const std::vector<Span> &spans() const { return Spans; }

  /// Durations in nanoseconds of the spans named \p Name recorded at
  /// index \p From or later.
  std::vector<double> durations(const char *Name, size_t From = 0) const;

  /// Per span name: total and self nanoseconds (self = duration minus
  /// the time covered by child spans).
  struct Totals {
    uint64_t Count = 0;
    double TotalNs = 0.0;
    double SelfNs = 0.0;
  };
  std::map<std::string, Totals> selfTimes() const;

private:
  std::vector<Span> Spans;
  std::vector<uint32_t> Stack;
  size_t Capacity;
  uint64_t Dropped = 0;
};

/// Writes \p Logs as one Chrome-trace JSON document, log I as thread
/// I + 1 (complete "X" events with their parent in args); Perfetto and
/// chrome://tracing open it.
bool writeChromeTrace(const std::string &Path,
                      const std::vector<const SpanLog *> &Logs);

/// RAII span; a no-op (no clock read) when the log is null.
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, const char *Name)
      : Log(Log), Id(Log ? Log->begin(Name) : 0) {}
  ~ScopedSpan() {
    if (Log)
      Log->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog *Log;
  uint32_t Id;
};

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

/// One named measurement.
struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Metric names every workload reports, and the units they carry. They
/// are the `end_to_end` and `per_layer` lists of BENCHMARK.json.
extern const std::vector<std::pair<const char *, const char *>>
    EndToEndMetrics;
extern const std::vector<std::pair<const char *, const char *>>
    PerLayerMetrics;

/// What one workload run measured and checked.
class Report {
public:
  /// A metric of the BENCHMARK.json lists (end-to-end or per-layer).
  void metric(const std::string &Name, double Value, const char *Unit);
  /// A workload-specific detail (printed and written to the result
  /// file, but not part of the benchmark's fixed metric lists).
  void extra(const std::string &Name, double Value, const char *Unit);
  /// A free-form fact of the run (final variants, model source, ...).
  void note(const std::string &Key, const std::string &Value);

  /// Counts \p Attempted correctness checks of which \p Failed failed;
  /// \p What names a failure on stderr.
  void checks(uint64_t Attempted, uint64_t Failed, const char *What);
  void check(bool Ok, const char *What) { checks(1, Ok ? 0 : 1, What); }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

  /// Names of \p Expected missing from the recorded metrics.
  std::vector<std::string>
  missing(const std::vector<std::pair<const char *, const char *>> &Expected)
      const;

  /// Prints `<name> <value> <unit>` lines, metrics then extras.
  void printLines() const;
  /// The result line: {"correct", "attempted", "failed", "metrics"}
  /// over the metrics named in \p Names.
  std::string resultLine(
      const std::vector<std::pair<const char *, const char *>> &Names) const;
  /// The result envelope (schema cswitch-benchmark-v1) as JSON.
  std::string envelope(const std::map<std::string, std::string> &Header)
      const;

private:
  const Metric *find(const std::string &Name) const;

  std::vector<Metric> Metrics;
  std::vector<Metric> Extras;
  std::vector<std::pair<std::string, std::string>> Notes;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// JSON string literal of \p S.
std::string jsonString(const std::string &S);
/// JSON number with all significant digits (non-finite becomes null).
std::string jsonNumber(double V);

} // namespace suite
} // namespace cswitch

#endif // CSWITCH_BENCH_SUITE_REPORT_H
