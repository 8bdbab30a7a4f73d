#ifndef DSPOT_SNAPSHOT_SNAPSHOT_H_
#define DSPOT_SNAPSHOT_SNAPSHOT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "core/dspot.h"
#include "core/params.h"
#include "guard/guard.h"
#include "tensor/activity_tensor.h"
#include "tensor/normalization.h"

namespace dspot {

/// Versioned, endian-stable persistence for fitted Δ-SPOT models — the
/// substrate for serving: fit once, save, then load to forecast,
/// warm-start a refit, or absorb newly arrived ticks (see update.h).
///
/// One file format: the "DSPOTSNP" magic, a u32 version, the length of
/// the *canonical payload* (the little-endian binary encoding of the
/// model), the payload itself and its CRC-32. Identical models give
/// byte-identical files on every host.

/// Everything needed to resume serving a fitted model: the parameter set,
/// the tensor's labels, the per-keyword normalization applied before
/// fitting, and the fit's quality/health summary.
struct ModelSnapshot {
  ModelParamSet params;
  std::vector<std::string> keywords;
  std::vector<std::string> locations;
  /// Per-keyword normalization factors (empty when the tensor was fit
  /// unnormalized). Needed to map forecasts back to original units.
  std::vector<ScaleInfo> scales;
  /// Per-keyword in-sample RMSE and the model's total MDL cost.
  std::vector<double> global_rmse;
  double total_cost_bits = 0.0;
  FitHealth health;
};

/// Assembles a snapshot from a fit result and the tensor it was fit on
/// (labels come from the tensor). `scales` may be empty.
ModelSnapshot MakeSnapshot(const DspotResult& result,
                           const ActivityTensor& tensor,
                           const std::vector<ScaleInfo>& scales = {});

/// Current (and only) payload format version.
inline constexpr uint32_t kSnapshotVersion = 1;

/// Writes `snapshot` to `path`, replacing any previous file atomically.
Status SaveSnapshot(const ModelSnapshot& snapshot, const std::string& path);

/// Reads a snapshot written by SaveSnapshot. Errors carry location
/// context:
///  * bad magic / not a snapshot        -> InvalidArgument
///  * unsupported (future) version      -> InvalidArgument, names both
///  * truncation, checksum mismatch,
///    or impossible embedded values     -> DataLoss with "<path>: offset"
/// A non-OK load never returns a partially decoded model.
StatusOr<ModelSnapshot> LoadSnapshot(const std::string& path);

/// The canonical payload bytes of `snapshot`: the part of the file the
/// CRC-32 covers (exposed for tests; stable across hosts).
std::vector<uint8_t> EncodeSnapshotPayload(const ModelSnapshot& snapshot);

/// The complete binary-file bytes of `snapshot` — magic, version, length,
/// payload, CRC-32 — i.e. exactly what SaveSnapshot writes. For
/// callers that own the write path themselves (the serve registry writes
/// cache spill files without per-file fsync; a crash merely loses a
/// rebuildable cache entry).
std::vector<uint8_t> EncodeSnapshotFile(const ModelSnapshot& snapshot);

}  // namespace dspot

#endif  // DSPOT_SNAPSHOT_SNAPSHOT_H_
