#include "core/binio.h"

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "core/graph_builder.h"
#include "core/types.h"

namespace wrbpg {
namespace {

constexpr std::size_t kHeaderSize = 8;
constexpr std::size_t kChecksumSize = 8;
// Bounds an individual node-name record; a longer length field in the
// stream is corruption, not a graph.
constexpr std::uint32_t kMaxNameLen = 4096;

std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Little-endian writer over a buffer sized up front from the fixed layout,
// so encoding is one allocation and no per-field growth checks.
class Writer {
 public:
  Writer(std::uint8_t kind, std::size_t payload_size)
      : out_(kHeaderSize + payload_size + kChecksumSize, '\0') {
    Bytes(kBinMagic);
    U8(kBinVersion);
    U8(kind);
    U16(0);  // reserved
  }

  void U8(std::uint8_t v) { Le(v, 1); }
  void U16(std::uint16_t v) { Le(v, 2); }
  void U32(std::uint32_t v) { Le(v, 4); }
  void U64(std::uint64_t v) { Le(v, 8); }
  void Bytes(std::string_view bytes) {
    if (bytes.empty()) return;  // memcpy from a null data() is undefined
    std::memcpy(out_.data() + pos_, bytes.data(), bytes.size());
    pos_ += bytes.size();
  }

  // Appends the checksum footer over everything written so far.
  std::string Finish() && {
    U64(Fnv1a(std::string_view(out_).substr(0, pos_)));
    return std::move(out_);
  }

 private:
  void Le(std::uint64_t v, int width) {
    // Through a local pointer: a store through char* may alias pos_, so
    // indexing out_ per byte would reload both after every byte.
    char* at = out_.data() + pos_;
    for (int i = 0; i < width; ++i) {
      at[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    pos_ += static_cast<std::size_t>(width);
  }

  std::string out_;
  std::size_t pos_ = 0;
};

// Bounds-checked little-endian reader over the payload region.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::size_t offset() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

  bool ReadU8(std::uint8_t& out) {
    if (remaining() < 1) return false;
    out = static_cast<std::uint8_t>(bytes_[pos_++]);
    return true;
  }
  bool ReadU32(std::uint32_t& out) {
    if (remaining() < 4) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(bytes_[pos_ + static_cast<std::size_t>(i)]))
             << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool ReadU64(std::uint64_t& out) {
    if (remaining() < 8) return false;
    out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(bytes_[pos_ + static_cast<std::size_t>(i)]))
             << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool ReadI64(std::int64_t& out) {
    std::uint64_t raw = 0;
    if (!ReadU64(raw)) return false;
    out = static_cast<std::int64_t>(raw);
    return true;
  }
  bool ReadBytes(std::size_t n, std::string_view& out) {
    if (remaining() < n) return false;
    out = bytes_.substr(pos_, n);
    pos_ += n;
    return true;
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// Validates the fixed envelope (magic, version, kind, checksum) and
// returns the payload region, or a failure reason.
bool OpenEnvelope(std::string_view bytes, std::uint8_t expected_kind,
                  std::string_view& payload, std::string& error) {
  if (bytes.size() < kHeaderSize + kChecksumSize) {
    error = "truncated: " + std::to_string(bytes.size()) +
            " bytes is shorter than header + checksum";
    return false;
  }
  if (bytes.substr(0, kBinMagic.size()) != kBinMagic) {
    error = "bad magic: expected 'WBIN'";
    return false;
  }
  const auto version = static_cast<std::uint8_t>(bytes[4]);
  if (version != kBinVersion) {
    error = "unsupported version " + std::to_string(version) +
            " (this reader speaks v" + std::to_string(kBinVersion) + ")";
    return false;
  }
  const auto kind = static_cast<std::uint8_t>(bytes[5]);
  if (kind != expected_kind) {
    error = "wrong kind " + std::to_string(kind) + " (expected " +
            std::to_string(expected_kind) + ")";
    return false;
  }
  if (bytes[6] != 0 || bytes[7] != 0) {
    error = "reserved header bytes are not zero";
    return false;
  }
  const std::string_view body = bytes.substr(0, bytes.size() - kChecksumSize);
  Reader footer(bytes.substr(bytes.size() - kChecksumSize));
  std::uint64_t stored = 0;
  footer.ReadU64(stored);
  const std::uint64_t computed = Fnv1a(body);
  if (stored != computed) {
    error = "checksum mismatch (corrupt or truncated stream)";
    return false;
  }
  payload = bytes.substr(kHeaderSize, bytes.size() - kHeaderSize -
                                          kChecksumSize);
  return true;
}

}  // namespace

bool LooksLikeBinary(std::string_view bytes) {
  return bytes.size() >= kBinMagic.size() &&
         bytes.substr(0, kBinMagic.size()) == kBinMagic;
}

std::string ToBinary(const Graph& graph) {
  const NodeId n = graph.num_nodes();
  std::size_t name_bytes = 0;
  bool any_name = false;
  for (NodeId v = 0; v < n; ++v) {
    name_bytes += 4 + graph.name(v).size();
    any_name = any_name || !graph.name(v).empty();
  }
  Writer out(kBinKindGraph, 4 + 4 + 8 * std::size_t{n} + 1 +
                                (any_name ? name_bytes : 0) +
                                8 * graph.num_edges());
  out.U32(n);
  out.U32(static_cast<std::uint32_t>(graph.num_edges()));
  for (NodeId v = 0; v < n; ++v) {
    out.U64(static_cast<std::uint64_t>(graph.weight(v)));
  }
  out.U8(any_name ? 1 : 0);
  if (any_name) {
    for (NodeId v = 0; v < n; ++v) {
      const std::string& name = graph.name(v);
      out.U32(static_cast<std::uint32_t>(name.size()));
      out.Bytes(name);
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId c : graph.children(v)) {
      out.U32(v);
      out.U32(c);
    }
  }
  return std::move(out).Finish();
}

std::string ToBinary(const Schedule& schedule) {
  Writer out(kBinKindSchedule, 4 + 5 * schedule.size());
  out.U32(static_cast<std::uint32_t>(schedule.size()));
  for (const Move& move : schedule) {
    out.U8(static_cast<std::uint8_t>(move.type));
    out.U32(move.node);
  }
  return std::move(out).Finish();
}

GraphParseResult ParseGraphBinary(std::string_view bytes) {
  GraphParseResult result;
  std::string_view payload;
  if (!OpenEnvelope(bytes, kBinKindGraph, payload, result.error)) {
    return result;
  }
  Reader in(payload);
  auto fail = [&](const std::string& message) {
    result.error =
        "offset " + std::to_string(kHeaderSize + in.offset()) + ": " + message;
    return result;
  };
  std::uint32_t num_nodes = 0;
  std::uint32_t num_edges = 0;
  if (!in.ReadU32(num_nodes) || !in.ReadU32(num_edges)) {
    return fail("truncated counts");
  }
  if (num_nodes == 0) return fail("graph declares zero nodes");
  // Every node costs >= 8 payload bytes (its weight) and every edge 8;
  // counts beyond the remaining bytes are corruption, rejected before
  // any allocation is sized from them.
  if (num_nodes > in.remaining() / 8) {
    return fail("declared node count " + std::to_string(num_nodes) +
                " exceeds the remaining payload");
  }
  if (num_edges > in.remaining() / 8) {
    return fail("declared edge count " + std::to_string(num_edges) +
                " exceeds the remaining payload");
  }
  std::vector<Weight> weights(num_nodes);
  for (std::uint32_t v = 0; v < num_nodes; ++v) {
    if (!in.ReadI64(weights[v])) return fail("truncated weight table");
    if (weights[v] <= 0) {
      return fail("node " + std::to_string(v) + " has non-positive weight " +
                  std::to_string(weights[v]));
    }
  }
  std::uint8_t names_present = 0;
  if (!in.ReadU8(names_present)) return fail("truncated names flag");
  if (names_present > 1) {
    return fail("names flag must be 0 or 1, got " +
                std::to_string(names_present));
  }
  GraphBuilder builder;
  for (std::uint32_t v = 0; v < num_nodes; ++v) {
    if (names_present == 0) {
      builder.AddNode(weights[v]);
      continue;
    }
    std::uint32_t len = 0;
    if (!in.ReadU32(len)) return fail("truncated name table");
    if (len > kMaxNameLen) {
      return fail("name length " + std::to_string(len) + " exceeds limit " +
                  std::to_string(kMaxNameLen));
    }
    std::string_view raw;
    if (!in.ReadBytes(len, raw)) return fail("truncated name bytes");
    builder.AddNode(weights[v], std::string(raw));
  }
  // Endpoints are checked here, where the stream offset is known;
  // duplicate edges and cycles are left to GraphBuilder::Build, the one
  // model check both formats share.
  const std::size_t edge_table = in.offset();
  for (std::uint32_t e = 0; e < num_edges; ++e) {
    std::uint32_t u = 0;
    std::uint32_t v = 0;
    if (!in.ReadU32(u) || !in.ReadU32(v)) return fail("truncated edge table");
    if (u >= num_nodes || v >= num_nodes) {
      return fail("edge (" + std::to_string(u) + "," + std::to_string(v) +
                  ") references an undeclared node");
    }
    if (u == v) return fail("self-loop on node " + std::to_string(u));
    builder.AddEdge(u, v);
  }
  if (in.remaining() != 0) {
    return fail(std::to_string(in.remaining()) +
                " trailing payload bytes after the edge table");
  }
  auto built = builder.Build();
  if (!built.ok) {
    result.error = built.error;
    if (built.error_edge != GraphBuilder::kNoEdge) {
      // A duplicate edge, located past its record as the checks above are.
      result.error.insert(0, "offset " +
                                 std::to_string(kHeaderSize + edge_table +
                                                8 * (built.error_edge + 1)) +
                                 ": ");
    }
    return result;
  }
  result.graph = std::move(built.graph);
  result.ok = true;
  return result;
}

ScheduleParseResult ParseScheduleBinary(std::string_view bytes) {
  ScheduleParseResult result;
  std::string_view payload;
  if (!OpenEnvelope(bytes, kBinKindSchedule, payload, result.error)) {
    return result;
  }
  Reader in(payload);
  auto fail = [&](const std::string& message) {
    result.error =
        "offset " + std::to_string(kHeaderSize + in.offset()) + ": " + message;
    return result;
  };
  std::uint32_t num_moves = 0;
  if (!in.ReadU32(num_moves)) return fail("truncated move count");
  if (num_moves > in.remaining() / 5) {
    return fail("declared move count " + std::to_string(num_moves) +
                " exceeds the remaining payload");
  }
  std::vector<Move> moves;
  moves.reserve(num_moves);
  for (std::uint32_t i = 0; i < num_moves; ++i) {
    std::uint8_t type = 0;
    std::uint32_t node = 0;
    if (!in.ReadU8(type) || !in.ReadU32(node)) {
      return fail("truncated move table");
    }
    if (type > static_cast<std::uint8_t>(MoveType::kDelete)) {
      return fail("move " + std::to_string(i) + " has invalid type " +
                  std::to_string(type));
    }
    if (node >= kInvalidNode) {
      return fail("move " + std::to_string(i) + " node id out of range");
    }
    moves.push_back({static_cast<MoveType>(type), node});
  }
  if (in.remaining() != 0) {
    return fail(std::to_string(in.remaining()) +
                " trailing payload bytes after the move table");
  }
  result.schedule = Schedule(std::move(moves));
  result.ok = true;
  return result;
}

}  // namespace wrbpg
