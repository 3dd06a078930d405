#include "trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace sgla {
namespace perfbench {

uint64_t Tracer::NewRequest() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_request_++;
}

uint64_t Tracer::Begin(const std::string& name, uint64_t request,
                       uint64_t parent) {
  const int64_t now = Ns(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, request, parent, now, -1});
  return spans_.size();
}

void Tracer::End(uint64_t span) {
  const int64_t now = Ns(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[span - 1].end_ns = now;
}

uint64_t Tracer::Record(const std::string& name, uint64_t request,
                        uint64_t parent, Clock::time_point start,
                        Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, request, parent, Ns(start), Ns(end)});
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size() + 1);
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.end_ns >= 0) {
      children[s.parent].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    // Covered = union of the children's intervals clipped to this span.
    auto& kids = children[i + 1];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (const auto& [begin, end] : kids) {
      const int64_t b = std::max(begin, cursor);
      const int64_t e = std::min(end, s.end_ns);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i + 1 << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
}  // namespace sgla
