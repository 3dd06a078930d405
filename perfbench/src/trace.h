// In-memory span recorder of the traced run. Spans are recorded from the
// benchmark's own code around each call into a layer of the library: name
// ("<layer>.<what>"), start, end, parent span, and the request they belong
// to. Nothing is written until the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace sgla {
namespace perfbench {

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// A fresh request id; every span of one request carries it.
  uint64_t NewRequest();
  /// Opens a span now; returns its id (never 0).
  uint64_t Begin(const std::string& name, uint64_t request, uint64_t parent);
  void End(uint64_t span);
  /// Records a finished span whose bounds were stamped elsewhere (e.g. by
  /// the engine's solve hook on a worker thread).
  uint64_t Record(const std::string& name, uint64_t request, uint64_t parent,
                  Clock::time_point start, Clock::time_point end);

  /// Per layer (the name's prefix before the first '.'): the summed
  /// duration of its spans minus the part covered by their child spans.
  std::map<std::string, double> SelfMsByLayer() const;
  /// Writes every span as one JSON document.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    uint64_t request = 0;
    uint64_t parent = 0;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
  };
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< span id = index + 1
  uint64_t next_request_ = 1;
};

/// RAII span; a null tracer (the untraced run) records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const std::string& name, uint64_t request,
            uint64_t parent = 0)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(name, request, parent) : 0) {}
  ~SpanScope() {
    if (tracer_) tracer_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

}  // namespace perfbench
}  // namespace sgla

#endif  // PERFBENCH_TRACE_H_
