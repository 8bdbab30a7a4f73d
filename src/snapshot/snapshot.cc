#include "snapshot/snapshot.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "durable/durable_file.h"
#include "obs/metrics.h"
#include "snapshot/codec.h"

namespace dspot {

namespace {

constexpr char kMagic[8] = {'D', 'S', 'P', 'O', 'T', 'S', 'N', 'P'};

// Caps on decoded counts. Far above any real model, far below anything
// that could drive a pathological allocation from a corrupt length field.
constexpr uint64_t kMaxDim = 1u << 24;        // keywords / locations / ticks
constexpr uint64_t kMaxShocks = 1u << 20;
constexpr uint64_t kMaxLabelLen = 1u << 16;

// ---------------------------------------------------------------------------
// Canonical payload
// ---------------------------------------------------------------------------

void PutMatrix(ByteWriter* w, const Matrix& m) {
  w->PutU64(m.rows());
  w->PutU64(m.cols());
  for (double v : m.data()) {
    w->PutDouble(v);
  }
}

StatusOr<Matrix> GetMatrix(ByteReader* r, const char* what) {
  DSPOT_ASSIGN_OR_RETURN(uint64_t rows, r->GetCount(kMaxDim, what));
  DSPOT_ASSIGN_OR_RETURN(uint64_t cols, r->GetCount(kMaxDim, what));
  if (rows * cols > r->remaining() / 8) {
    return r->CorruptAt(std::string(what) + " matrix " +
                        std::to_string(rows) + "x" + std::to_string(cols) +
                        " larger than the remaining payload");
  }
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      DSPOT_ASSIGN_OR_RETURN(m(i, j), r->GetDouble());
    }
  }
  return m;
}

// Cross-field shape validation run after every decode. The codec
// reads each list behind its own length prefix, so a hostile file can
// declare num_keywords = 3 while storing one label (or the same label
// thrice); any consumer that indexes the label table by a stored keyword
// index would then read out of bounds — or serve model A under model B's
// name. Returns an empty string when the snapshot is consistent.
std::string SnapshotShapeProblem(const ModelSnapshot& s) {
  const ModelParamSet& p = s.params;
  if (s.keywords.size() != p.num_keywords) {
    return "keyword label count " + std::to_string(s.keywords.size()) +
           " does not match num_keywords " + std::to_string(p.num_keywords);
  }
  for (size_t i = 0; i < s.keywords.size(); ++i) {
    for (size_t j = i + 1; j < s.keywords.size(); ++j) {
      if (s.keywords[i] == s.keywords[j]) {
        return "duplicate keyword label '" + s.keywords[i] + "'";
      }
    }
  }
  if (s.locations.size() != p.num_locations) {
    return "location label count " + std::to_string(s.locations.size()) +
           " does not match num_locations " + std::to_string(p.num_locations);
  }
  if (!s.scales.empty() && s.scales.size() != p.num_keywords) {
    return "scale count " + std::to_string(s.scales.size()) +
           " does not match num_keywords " + std::to_string(p.num_keywords);
  }
  if (s.global_rmse.size() != p.num_keywords) {
    return "rmse count " + std::to_string(s.global_rmse.size()) +
           " does not match num_keywords " + std::to_string(p.num_keywords);
  }
  return std::string();
}

}  // namespace

std::vector<uint8_t> EncodeSnapshotPayload(const ModelSnapshot& s) {
  ByteWriter w;
  const ModelParamSet& p = s.params;
  w.PutU64(p.num_keywords);
  w.PutU64(p.num_locations);
  w.PutU64(p.num_ticks);
  w.PutU64(p.global.size());
  for (const KeywordGlobalParams& g : p.global) {
    w.PutDouble(g.population);
    w.PutDouble(g.beta);
    w.PutDouble(g.delta);
    w.PutDouble(g.gamma);
    w.PutDouble(g.i0);
    w.PutDouble(g.growth_rate);
    w.PutU64(g.growth_start);  // kNpos (all-ones) encodes "disabled"
  }
  PutMatrix(&w, p.base_local);
  PutMatrix(&w, p.growth_local);
  w.PutU64(p.shocks.size());
  for (const Shock& shock : p.shocks) {
    w.PutU64(shock.keyword);
    w.PutU64(shock.period);
    w.PutU64(shock.start);
    w.PutU64(shock.width);
    w.PutDouble(shock.base_strength);
    w.PutU64(shock.global_strengths.size());
    for (double v : shock.global_strengths) {
      w.PutDouble(v);
    }
    PutMatrix(&w, shock.local_strengths);
  }
  w.PutU64(s.keywords.size());
  for (const std::string& k : s.keywords) {
    w.PutString(k);
  }
  w.PutU64(s.locations.size());
  for (const std::string& l : s.locations) {
    w.PutString(l);
  }
  w.PutU64(s.scales.size());
  for (const ScaleInfo& info : s.scales) {
    w.PutDouble(info.factor);
  }
  w.PutU64(s.global_rmse.size());
  for (double v : s.global_rmse) {
    w.PutDouble(v);
  }
  w.PutDouble(s.total_cost_bits);
  w.PutU64(static_cast<uint64_t>(s.health.iterations));
  w.PutU64(static_cast<uint64_t>(s.health.restarts));
  w.PutDouble(s.health.wall_time_ms);
  w.PutU64(static_cast<uint64_t>(s.health.termination));
  return std::move(w).TakeBytes();
}

namespace {

StatusOr<ModelSnapshot> DecodeSnapshotPayload(ByteReader* r) {
  ModelSnapshot s;
  ModelParamSet& p = s.params;
  DSPOT_ASSIGN_OR_RETURN(p.num_keywords, r->GetCount(kMaxDim, "num_keywords"));
  DSPOT_ASSIGN_OR_RETURN(p.num_locations,
                         r->GetCount(kMaxDim, "num_locations"));
  DSPOT_ASSIGN_OR_RETURN(p.num_ticks, r->GetCount(kMaxDim, "num_ticks"));
  DSPOT_ASSIGN_OR_RETURN(uint64_t n_global,
                         r->GetCount(kMaxDim, "global param count"));
  if (n_global != p.num_keywords) {
    return r->CorruptAt("global param count " + std::to_string(n_global) +
                        " does not match num_keywords " +
                        std::to_string(p.num_keywords));
  }
  p.global.resize(n_global);
  for (KeywordGlobalParams& g : p.global) {
    DSPOT_ASSIGN_OR_RETURN(g.population, r->GetDouble());
    DSPOT_ASSIGN_OR_RETURN(g.beta, r->GetDouble());
    DSPOT_ASSIGN_OR_RETURN(g.delta, r->GetDouble());
    DSPOT_ASSIGN_OR_RETURN(g.gamma, r->GetDouble());
    DSPOT_ASSIGN_OR_RETURN(g.i0, r->GetDouble());
    DSPOT_ASSIGN_OR_RETURN(g.growth_rate, r->GetDouble());
    DSPOT_ASSIGN_OR_RETURN(uint64_t gs, r->GetU64());
    g.growth_start = static_cast<size_t>(gs);
  }
  DSPOT_ASSIGN_OR_RETURN(p.base_local, GetMatrix(r, "base_local"));
  DSPOT_ASSIGN_OR_RETURN(p.growth_local, GetMatrix(r, "growth_local"));
  DSPOT_ASSIGN_OR_RETURN(uint64_t n_shocks,
                         r->GetCount(kMaxShocks, "shock count"));
  p.shocks.resize(n_shocks);
  for (Shock& shock : p.shocks) {
    DSPOT_ASSIGN_OR_RETURN(shock.keyword, r->GetU64());
    DSPOT_ASSIGN_OR_RETURN(shock.period, r->GetU64());
    DSPOT_ASSIGN_OR_RETURN(shock.start, r->GetU64());
    DSPOT_ASSIGN_OR_RETURN(shock.width, r->GetU64());
    if (shock.keyword >= p.num_keywords) {
      return r->CorruptAt("shock keyword " + std::to_string(shock.keyword) +
                          " out of range (num_keywords " +
                          std::to_string(p.num_keywords) + ")");
    }
    DSPOT_ASSIGN_OR_RETURN(shock.base_strength, r->GetDouble());
    DSPOT_ASSIGN_OR_RETURN(
        uint64_t n_str, r->GetCount(r->remaining() / 8, "strength count"));
    shock.global_strengths.resize(n_str);
    for (double& v : shock.global_strengths) {
      DSPOT_ASSIGN_OR_RETURN(v, r->GetDouble());
    }
    DSPOT_ASSIGN_OR_RETURN(shock.local_strengths,
                           GetMatrix(r, "local_strengths"));
  }
  DSPOT_ASSIGN_OR_RETURN(uint64_t n_kw,
                         r->GetCount(kMaxDim, "keyword label count"));
  s.keywords.resize(n_kw);
  for (std::string& k : s.keywords) {
    DSPOT_ASSIGN_OR_RETURN(k, r->GetString());
    if (k.size() > kMaxLabelLen) {
      return r->CorruptAt("keyword label longer than " +
                          std::to_string(kMaxLabelLen));
    }
  }
  DSPOT_ASSIGN_OR_RETURN(uint64_t n_loc,
                         r->GetCount(kMaxDim, "location label count"));
  s.locations.resize(n_loc);
  for (std::string& l : s.locations) {
    DSPOT_ASSIGN_OR_RETURN(l, r->GetString());
  }
  DSPOT_ASSIGN_OR_RETURN(uint64_t n_scales,
                         r->GetCount(kMaxDim, "scale count"));
  s.scales.resize(n_scales);
  for (ScaleInfo& info : s.scales) {
    DSPOT_ASSIGN_OR_RETURN(info.factor, r->GetDouble());
  }
  DSPOT_ASSIGN_OR_RETURN(uint64_t n_rmse,
                         r->GetCount(kMaxDim, "rmse count"));
  s.global_rmse.resize(n_rmse);
  for (double& v : s.global_rmse) {
    DSPOT_ASSIGN_OR_RETURN(v, r->GetDouble());
  }
  DSPOT_ASSIGN_OR_RETURN(s.total_cost_bits, r->GetDouble());
  DSPOT_ASSIGN_OR_RETURN(uint64_t iters, r->GetU64());
  DSPOT_ASSIGN_OR_RETURN(uint64_t restarts, r->GetU64());
  s.health.iterations = static_cast<int>(iters);
  s.health.restarts = static_cast<int>(restarts);
  DSPOT_ASSIGN_OR_RETURN(s.health.wall_time_ms, r->GetDouble());
  DSPOT_ASSIGN_OR_RETURN(uint64_t term, r->GetU64());
  if (term > static_cast<uint64_t>(FitTermination::kCancelled)) {
    return r->CorruptAt("impossible termination value " +
                        std::to_string(term));
  }
  s.health.termination = static_cast<FitTermination>(term);
  if (r->remaining() != 0) {
    return r->CorruptAt(std::to_string(r->remaining()) +
                        " trailing bytes after the payload");
  }
  if (const std::string problem = SnapshotShapeProblem(s); !problem.empty()) {
    return r->CorruptAt(problem);
  }
  return s;
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

StatusOr<ModelSnapshot> LoadBinarySnapshot(const std::string& bytes,
                                           const std::string& path) {
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path +
                                   ": not a dspot snapshot (bad magic)");
  }
  ByteReader r(data + sizeof(kMagic), bytes.size() - sizeof(kMagic),
               path);
  DSPOT_ASSIGN_OR_RETURN(uint32_t version, r.GetU32());
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument(
        path + ": unsupported snapshot version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kSnapshotVersion) +
        ")");
  }
  // Bound the length by what follows its own 8-byte prefix, less the
  // 4-byte CRC trailer: remaining() taken before the prefix is read would
  // let a truncated file place the trailer past the end of the buffer.
  DSPOT_ASSIGN_OR_RETURN(
      uint64_t payload_len,
      r.GetCount(r.remaining() >= 12 ? r.remaining() - 12 : 0,
                 "payload length"));
  const size_t payload_off = sizeof(kMagic) + r.offset();
  const uint8_t* payload = data + payload_off;
  ByteReader trailer(payload + payload_len,
                     bytes.size() - payload_off - payload_len, path);
  DSPOT_ASSIGN_OR_RETURN(uint32_t stored_crc, trailer.GetU32());
  const uint32_t crc = Crc32(payload, payload_len);
  if (crc != stored_crc) {
    return Status::DataLoss(path + ": offset " + std::to_string(payload_off) +
                            ": payload checksum mismatch (stored " +
                            std::to_string(stored_crc) + ", computed " +
                            std::to_string(crc) + ")");
  }
  ByteReader payload_reader(payload, payload_len, path);
  return DecodeSnapshotPayload(&payload_reader);
}

}  // namespace

ModelSnapshot MakeSnapshot(const DspotResult& result,
                           const ActivityTensor& tensor,
                           const std::vector<ScaleInfo>& scales) {
  ModelSnapshot s;
  s.params = result.params;
  s.keywords = tensor.keywords();
  s.locations = tensor.locations();
  s.scales = scales;
  s.global_rmse = result.global_rmse;
  s.total_cost_bits = result.total_cost_bits;
  s.health = result.health;
  return s;
}

std::vector<uint8_t> EncodeSnapshotFile(const ModelSnapshot& snapshot) {
  const std::vector<uint8_t> payload = EncodeSnapshotPayload(snapshot);
  ByteWriter file;
  file.PutBytes(kMagic, sizeof(kMagic));
  file.PutU32(kSnapshotVersion);
  file.PutU64(payload.size());
  file.PutBytes(payload.data(), payload.size());
  file.PutU32(Crc32(payload.data(), payload.size()));
  return std::move(file).TakeBytes();
}

Status SaveSnapshot(const ModelSnapshot& snapshot, const std::string& path) {
  DSPOT_SPAN("snapshot.save");
  // Assemble the full file in memory, then replace the destination
  // atomically: a crashed or failed save leaves any previous snapshot
  // exactly as it was, never a truncated hybrid.
  const std::vector<uint8_t> file = EncodeSnapshotFile(snapshot);
  DSPOT_RETURN_IF_ERROR(AtomicWriteFile(path, file.data(), file.size()));
  DSPOT_COUNT("snapshot.saves", 1);
  DSPOT_OBSERVE("snapshot.save_bytes", static_cast<double>(file.size()));
  return Status::Ok();
}

StatusOr<ModelSnapshot> LoadSnapshot(const std::string& path) {
  DSPOT_SPAN("snapshot.load");
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  if (!is && !is.eof()) {
    return Status::IoError("read failed: " + path);
  }
  const std::string bytes = buf.str();
  if (bytes.empty()) {
    return Status::InvalidArgument(path + ": empty file");
  }
  StatusOr<ModelSnapshot> loaded = LoadBinarySnapshot(bytes, path);
  if (loaded.ok()) {
    DSPOT_COUNT("snapshot.loads", 1);
  } else {
    DSPOT_COUNT("snapshot.load_errors", 1);
  }
  return loaded;
}

}  // namespace dspot
