// Span recorder for the traced run. Spans are recorded in the benchmark's
// own code around calls into one layer's public functions: each has a
// name, wall start and end, the span that caused it and the op it served.
// They are kept in memory and written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class SpanRecorder {
 public:
  static constexpr std::uint64_t kNoOp = UINT64_MAX;

  /// Disabled recorders cost one branch per span.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span and returns its id (0 when disabled; 0 is never a
  /// valid span, so it doubles as "no parent").
  std::uint32_t begin(const char* name, std::uint64_t op = kNoOp,
                      std::uint32_t parent = 0) {
    if (!enabled_) return 0;
    spans_.push_back({name, wall_ns(), 0, parent, op});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void end(std::uint32_t id) {
    if (id != 0) spans_[id - 1].end_ns = wall_ns();
  }

  /// Span count and summed duration per name.
  struct Total {
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
  };
  [[nodiscard]] Total total(const std::string& name) const {
    Total t;
    for (const Span& s : spans_) {
      if (name == s.name && s.end_ns >= s.start_ns) {
        ++t.count;
        t.ns += s.end_ns - s.start_ns;
      }
    }
    return t;
  }
  /// Mean duration of the named spans in ns (0 when none).
  [[nodiscard]] double mean_ns(const std::string& name) const {
    const Total t = total(name);
    return t.count == 0 ? 0.0 : static_cast<double>(t.ns) / static_cast<double>(t.count);
  }

  /// Writes every span as CSV: id,name,start_ns,end_ns,parent,op, with
  /// times relative to the first span and -1 for "no op".
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,name,start_ns,end_ns,parent,op\n");
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%s,%llu,%llu,%u,%lld\n", i + 1, s.name,
                   static_cast<unsigned long long>(s.start_ns - origin),
                   static_cast<unsigned long long>(s.end_ns - origin), s.parent,
                   s.op == kNoOp ? -1LL : static_cast<long long>(s.op));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;  ///< string literal
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint32_t parent;
    std::uint64_t op;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanRecorder& r, const char* name, std::uint64_t op = SpanRecorder::kNoOp,
         std::uint32_t parent = 0)
      : r_(r), id_(r.begin(name, op, parent)) {}
  ~Scoped() { r_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder& r_;
  std::uint32_t id_;
};

}  // namespace perfbench
