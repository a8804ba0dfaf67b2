#include "trace.h"

#include "obs/trace.h"

namespace perfbench {

namespace {
constexpr int kPid = 100;
constexpr int kTid = 1;
}  // namespace

int SpanLog::begin(const char* name, int rep) {
  Span s;
  s.name = name;
  s.start_s = seconds_between(origin_, Clock::now());
  s.end_s = s.start_s;
  s.parent = open_.empty() ? -1 : open_.back();
  s.rep = rep;
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::end(int id) {
  spans_[id].end_s = seconds_between(origin_, Clock::now());
  // Scopes close innermost-first, so `id` is on top of the stack.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

core::Json SpanLog::to_chrome_trace() const {
  astral::obs::ChromeTraceBuilder b;
  b.process_name(kPid, "perfbench (host wall clock)");
  b.thread_name(kPid, kTid, "benchmark calls");
  for (const Span& s : spans_) {
    core::Json args = core::Json::object();
    args["rep"] = s.rep;
    args["parent"] = s.parent < 0 ? std::string("") : std::string(spans_[s.parent].name);
    b.complete(kPid, kTid, s.name, s.start_s, s.end_s - s.start_s, std::move(args));
  }
  return b.build();
}

}  // namespace perfbench
