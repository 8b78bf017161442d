// In-memory span recorder for the traced run: each span has a name, start,
// end and parent; spans are kept in memory and written once, at exit, as
// Chrome trace-event JSON (opens in chrome://tracing or Perfetto).
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_(origin) {}

  /// Opens a span under the innermost open one; returns its id.
  int begin(std::string name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), Clock::now(), {}, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return id;
  }
  void end(int id) {
    spans_[id].end = Clock::now();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }
  /// A closed span with explicit times (fence-to-fence epochs).
  void add(std::string name, Clock::time_point start, Clock::time_point end) {
    spans_.push_back({std::move(name), start, end, open_.empty() ? -1 : open_.back()});
  }

  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                   i ? "," : "", s.name.c_str(), micros(s.start), micros(s.end) - micros(s.start), i,
                   s.parent);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    int parent;
  };
  [[nodiscard]] double micros(Clock::time_point t) const { return seconds_between(origin_, t) * 1e6; }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder records nothing.
class Scope {
 public:
  Scope(Spans* spans, std::string name) : spans_(spans) {
    if (spans_) id_ = spans_->begin(std::move(name));
  }
  ~Scope() {
    if (spans_) spans_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  int id_ = -1;
};

}  // namespace perfbench
