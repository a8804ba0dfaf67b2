// Host wall-clock spans the benchmark records around its own calls into
// the library: name, start, end and the span that encloses it. Spans stay
// in memory and are exported once, at exit, as a Chrome/Perfetto trace
// under a process of their own, so host time never shares a track with the
// simulated time the library's own tracer records.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "core/json.h"

namespace perfbench {

namespace core = astral::core;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class SpanLog {
 public:
  struct Span {
    const char* name = "";
    double start_s = 0.0;  ///< Host seconds since the log was created.
    double end_s = 0.0;
    int parent = -1;  ///< Index of the enclosing span, -1 at the root.
    int rep = 0;      ///< Repetition the span belongs to.
  };

  SpanLog() : origin_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  int begin(const char* name, int rep);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// {"traceEvents": [...]} with every span on one thread of a process
  /// named "perfbench (host wall clock)".
  core::Json to_chrome_trace() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times a block of code and, given a log, records it as a span. A null
/// log records nothing, so untraced repetitions run the same code.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, int rep)
      : log_(log), id_(log ? log->begin(name, rep) : -1), start_(Clock::now()) {}
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the span (once) and returns its host seconds.
  double stop() {
    if (!stopped_) {
      seconds_ = seconds_between(start_, Clock::now());
      if (log_) log_->end(id_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  SpanLog* log_;
  int id_;
  Clock::time_point start_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

}  // namespace perfbench
