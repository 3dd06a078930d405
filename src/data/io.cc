#include "data/io.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

namespace sgla {
namespace data {
namespace {

constexpr uint64_t kCsrMagic = 0x53474c41637372ull;   // "SGLAcsr"
constexpr uint64_t kMvagMagic = 0x53474c416d7667ull;  // "SGLAmvg"

// Generic std::ostream/istream so the same validated read/write paths serve
// both the snapshot files and the in-memory blocks persist checkpoints embed.
template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return in.good();
}

template <typename T>
void WriteVector(std::ostream& out, const std::vector<T>& values) {
  WritePod(out, static_cast<uint64_t>(values.size()));
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(T)));
}

template <typename T>
bool ReadVector(std::istream& in, std::vector<T>* values) {
  uint64_t size = 0;
  if (!ReadPod(in, &size)) return false;
  if (size > (1ull << 33)) return false;  // corrupt header guard
  values->resize(size);
  in.read(reinterpret_cast<char*>(values->data()),
          static_cast<std::streamsize>(size * sizeof(T)));
  return in.good() || (size == 0 && !in.bad());
}

void WriteMvagTo(std::ostream& out, const core::MultiViewGraph& mvag) {
  WritePod(out, kMvagMagic);
  WritePod(out, mvag.num_nodes());
  WritePod(out, static_cast<int64_t>(mvag.num_clusters()));
  WriteVector(out, mvag.labels());
  WritePod(out, static_cast<uint64_t>(mvag.graph_views().size()));
  for (const graph::Graph& g : mvag.graph_views()) {
    WritePod(out, g.num_nodes());
    std::vector<int64_t> endpoints;
    std::vector<double> weights;
    endpoints.reserve(static_cast<size_t>(g.num_edges()) * 2);
    weights.reserve(static_cast<size_t>(g.num_edges()));
    for (const graph::Edge& e : g.edges()) {
      endpoints.push_back(e.u);
      endpoints.push_back(e.v);
      weights.push_back(e.weight);
    }
    WriteVector(out, endpoints);
    WriteVector(out, weights);
  }
  WritePod(out, static_cast<uint64_t>(mvag.attribute_views().size()));
  for (const la::DenseMatrix& x : mvag.attribute_views()) {
    WritePod(out, x.rows());
    WritePod(out, x.cols());
    WriteVector(out, x.data());
  }
}

Result<core::MultiViewGraph> ReadMvagFrom(std::istream& in,
                                          const std::string& what) {
  uint64_t magic = 0;
  if (!ReadPod(in, &magic) || magic != kMvagMagic) {
    return InvalidArgument("bad MVAG magic: " + what);
  }
  int64_t nodes = 0, clusters = 0;
  std::vector<int32_t> labels;
  if (!ReadPod(in, &nodes) || !ReadPod(in, &clusters) ||
      !ReadVector(in, &labels)) {
    return InvalidArgument("truncated MVAG file: " + what);
  }
  if (nodes < 0) return InvalidArgument("bad MVAG node count: " + what);
  core::MultiViewGraph mvag(nodes, static_cast<int>(clusters));
  mvag.set_labels(std::move(labels));

  uint64_t graph_count = 0;
  if (!ReadPod(in, &graph_count) || graph_count > 64) {
    return InvalidArgument("bad MVAG graph view count: " + what);
  }
  for (uint64_t v = 0; v < graph_count; ++v) {
    int64_t view_nodes = 0;
    std::vector<int64_t> endpoints;
    std::vector<double> weights;
    if (!ReadPod(in, &view_nodes) || !ReadVector(in, &endpoints) ||
        !ReadVector(in, &weights) || endpoints.size() != weights.size() * 2) {
      return InvalidArgument("truncated MVAG graph view: " + what);
    }
    graph::Graph g(view_nodes);
    for (size_t e = 0; e < weights.size(); ++e) {
      const int64_t u = endpoints[2 * e];
      const int64_t w = endpoints[2 * e + 1];
      if (u < 0 || u >= view_nodes || w < 0 || w >= view_nodes) {
        return InvalidArgument("MVAG graph view edge endpoint out of range: " +
                               what);
      }
      g.AddEdge(u, w, weights[e]);
    }
    mvag.AddGraphView(std::move(g));
  }

  uint64_t attr_count = 0;
  if (!ReadPod(in, &attr_count) || attr_count > 64) {
    return InvalidArgument("bad MVAG attribute view count: " + what);
  }
  for (uint64_t v = 0; v < attr_count; ++v) {
    int64_t rows = 0, cols = 0;
    std::vector<double> values;
    if (!ReadPod(in, &rows) || !ReadPod(in, &cols) ||
        !ReadVector(in, &values) ||
        values.size() != static_cast<size_t>(rows * cols)) {
      return InvalidArgument("truncated MVAG attribute view: " + what);
    }
    la::DenseMatrix x(rows, cols);
    x.data() = std::move(values);
    mvag.AddAttributeView(std::move(x));
  }
  return mvag;
}

}  // namespace

Status SaveCsr(const la::CsrMatrix& matrix, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Internal("cannot open for write: " + path);
  WritePod(out, kCsrMagic);
  WritePod(out, matrix.rows);
  WritePod(out, matrix.cols);
  WriteVector(out, matrix.row_ptr);
  WriteVector(out, matrix.col_idx);
  WriteVector(out, matrix.values);
  out.flush();
  if (!out) return Internal("short write: " + path);
  return OkStatus();
}

Result<la::CsrMatrix> LoadCsr(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFound("cannot open: " + path);
  uint64_t magic = 0;
  if (!ReadPod(in, &magic) || magic != kCsrMagic) {
    return InvalidArgument("bad CSR magic: " + path);
  }
  la::CsrMatrix m;
  if (!ReadPod(in, &m.rows) || !ReadPod(in, &m.cols) ||
      !ReadVector(in, &m.row_ptr) || !ReadVector(in, &m.col_idx) ||
      !ReadVector(in, &m.values)) {
    return InvalidArgument("truncated CSR file: " + path);
  }
  if (m.rows < 0 || m.cols < 0 || m.col_idx.size() != m.values.size() ||
      m.row_ptr.size() != static_cast<size_t>(m.rows) + 1) {
    return InvalidArgument("inconsistent CSR file: " + path);
  }
  // Structural validation: a corrupt file that passes the size checks must
  // not be able to cause out-of-bounds reads in Spmv and friends.
  if (m.row_ptr.front() != 0 ||
      m.row_ptr.back() != static_cast<int64_t>(m.col_idx.size())) {
    return InvalidArgument("corrupt CSR row_ptr bounds: " + path);
  }
  for (size_t r = 1; r < m.row_ptr.size(); ++r) {
    if (m.row_ptr[r] < m.row_ptr[r - 1]) {
      return InvalidArgument("corrupt CSR row_ptr order: " + path);
    }
  }
  for (int64_t c : m.col_idx) {
    if (c < 0 || c >= m.cols) {
      return InvalidArgument("corrupt CSR column index: " + path);
    }
  }
  return m;
}

Status SaveMvag(const core::MultiViewGraph& mvag, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Internal("cannot open for write: " + path);
  WriteMvagTo(out, mvag);
  out.flush();
  if (!out) return Internal("short write: " + path);
  return OkStatus();
}

Result<core::MultiViewGraph> LoadMvag(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFound("cannot open: " + path);
  return ReadMvagFrom(in, path);
}

void SaveMvagBytes(const core::MultiViewGraph& mvag, std::string* out) {
  std::ostringstream buffer(std::ios::binary);
  WriteMvagTo(buffer, mvag);
  out->append(buffer.str());
}

Result<core::MultiViewGraph> LoadMvagBytes(const uint8_t* data, size_t size,
                                           size_t* consumed) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size),
      std::ios::binary);
  auto mvag = ReadMvagFrom(in, "embedded MVAG block");
  if (mvag.ok() && consumed != nullptr) {
    const std::streampos pos = in.tellg();
    *consumed = pos < 0 ? size : static_cast<size_t>(pos);
  }
  return mvag;
}

}  // namespace data
}  // namespace sgla
