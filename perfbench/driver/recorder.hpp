// In-memory span recorder for the traced run. Spans carry a name, start and
// end (seconds since the recorder was made), the parent span open when they
// began, and the labels workload / sweep / mode / rank / phase. They are
// kept in memory and written as a Chrome trace-event file when the run ends.
// Single-threaded: only the driver's main thread (or one simulated rank at a
// time) records.
#pragma once

#include <chrono>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0, end = 0.0;
  int parent = -1;
  int sweep = -1, mode = -1, rank = 0;
  std::string phase;
};

class Recorder {
 public:
  explicit Recorder(std::string workload) : workload_(std::move(workload)) {}

  int begin(std::string name, int sweep, int mode, int rank,
            std::string phase) {
    Span s;
    s.name = std::move(name);
    s.start = now();
    s.parent = open_.empty() ? -1 : open_.back();
    s.sweep = sweep;
    s.mode = mode;
    s.rank = rank;
    s.phase = std::move(phase);
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    open_.pop_back();
  }

  /// Summed duration (seconds) of every span called `name`.
  [[nodiscard]] double total(const std::string& name) const {
    double t = 0.0;
    for (const auto& s : spans_)
      if (s.name == name) t += s.end - s.start;
    return t;
  }
  /// Like total(), restricted to one rank.
  [[nodiscard]] double total(const std::string& name, int rank) const {
    double t = 0.0;
    for (const auto& s : spans_)
      if (s.name == name && s.rank == rank) t += s.end - s.start;
    return t;
  }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON (viewable in Perfetto / chrome://tracing).
  void write(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i) f << ',';
      f << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":0,\"tid\":"
        << s.rank << ",\"ts\":" << s.start * 1e6
        << ",\"dur\":" << (s.end - s.start) * 1e6 << ",\"args\":{"
        << "\"workload\":\"" << workload_ << "\",\"sweep\":" << s.sweep
        << ",\"mode\":" << s.mode << ",\"phase\":\"" << s.phase
        << "\",\"parent\":" << s.parent << "}}";
    }
    f << "]}\n";
  }

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(clock::now() - origin_).count();
  }

  using clock = std::chrono::steady_clock;
  std::string workload_;
  clock::time_point origin_ = clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Recorder& r, std::string name, int sweep, int mode, int rank,
             std::string phase)
      : r_(r), id_(r.begin(std::move(name), sweep, mode, rank,
                            std::move(phase))) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { r_.end(id_); }

 private:
  Recorder& r_;
  int id_;
};

}  // namespace perfbench
