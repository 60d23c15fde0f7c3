#pragma once
// The pipeline state and its durable crash-consistent journal (DESIGN.md
// §11, §16).
//
// PipelineSnapshot is the one pipeline-state type. Each Nesterov stage
// captures it from its live objects and applies it back: an in-memory copy
// is the recovery rollback checkpoint (§11), its best_* fields are the
// stage-2 keep-best snapshot, and this layer persists it at stage
// boundaries so a run killed at any instruction — OOM, preemption, power
// loss — resumes and finishes **bitwise identical** to the uninterrupted
// run.
//
// Format: a versioned binary snapshot ("RDPCKPT\0", format version,
// design/config fingerprint, stage/iteration cursor) holding tagged
// sections — positions, optimizer momentum, inflation state, best-so-far
// snapshot, congestion/extra-density maps, oscillation history — each
// with its own FNV-1a 64 checksum, so truncation or a bit flip anywhere
// names the damaged section instead of producing silent garbage.
//
// Journal: two alternating slot files (ckpt-a.bin / ckpt-b.bin, slot =
// generation % 2), each written temp-file + fsync + atomic rename
// (io_atomic.hpp). A crash mid-write tears at most the temp file; a
// corrupted newest generation falls back to the previous one; when both
// are unusable the run warns and starts clean. Write failures (disk
// full, unwritable directory) degrade once, loudly, to the in-memory
// recovery ladder only.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "inflation/momentum_inflation.hpp"
#include "util/geometry.hpp"
#include "util/grid2d.hpp"

namespace rdp::recover {

/// Stage cursor values stored in the snapshot header.
inline constexpr int kStageWirelength = 1;
inline constexpr int kStageRoutability = 2;

inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;

/// FNV-1a 64-bit over `n` bytes — the per-section checksum and the
/// design-fingerprint hash. Chainable via `seed`.
uint64_t fnv1a64(const void* data, size_t n, uint64_t seed = kFnvOffset);

/// Complete momentum state of a NesterovSolver: restore() onto a freshly
/// constructed solver reproduces the iterate sequence bit for bit.
struct OptimizerSnapshot {
    std::vector<Vec2> u;       ///< main iterate
    std::vector<Vec2> v;       ///< reference (lookahead) iterate
    std::vector<Vec2> prev_v;  ///< previous reference (BB steplength)
    std::vector<Vec2> prev_g;  ///< previous gradient (BB steplength)
    double a = 1.0;
    int k = 0;
    double last_alpha = 0.0;
    bool have_prev = false;
};

/// The pipeline state of one Nesterov stage: everything a resume restores,
/// of which a rollback restores positions, schedule and inflation. Stage 1
/// uses the cursor/position/optimizer/scalar fields; stage 2 additionally
/// carries inflation, best-so-far, map, and router-relaxation state (its
/// inner solver is rebuilt fresh every outer iteration, so `opt` stays
/// empty) and keeps its live positions, ratios and extra field in the
/// snapshot itself.
struct PipelineSnapshot {
    int stage = 0;
    int iter = 0;

    double lambda1 = 0.0;
    double gamma = 0.0;
    double lambda1_growth = 1.0;
    double initial_step = 1e-3;
    double last_wl = 0.0;

    std::vector<Vec2> pos;
    OptimizerSnapshot opt;

    std::vector<double> ratios;  ///< effective inflation ratios
    InflationSnapshot inflation;

    std::vector<Vec2> best_pos;
    std::vector<double> best_ratios;
    InflationSnapshot best_inflation;
    double best_metric = 0.0;
    double best_overflow = 0.0;
    double best_extra_area = 0.0;
    int best_iter = -1;
    int stall = 0;

    bool dc = false;
    bool dpa = false;
    bool use_ckpt_cmap = false;
    double router_overflow_penalty = 0.0;
    std::vector<double> router_layer_capacity;

    GridF extra;          ///< static extra-density field (PG rails + DPA)
    GridF cmap_demand;    ///< last routed congestion map
    GridF cmap_capacity;  ///< (empty grids when no route happened yet)
    std::vector<double> osc_window;

    /// False until a stage captured into it (stage 0 is no stage).
    bool valid() const { return stage != 0; }
};

/// Knobs of the durable layer; disabled while `dir` is empty.
struct DurableOptions {
    std::string dir;     ///< journal directory (RDP_CHECKPOINT_DIR)
    int every = 25;      ///< stage-1 save cadence (RDP_CHECKPOINT_EVERY);
                         ///< stage 2 saves at every outer iteration
    std::string resume;  ///< "", "auto", or a snapshot path (RDP_RESUME)
};

/// Overlay the RDP_CHECKPOINT_DIR / RDP_CHECKPOINT_EVERY / RDP_RESUME
/// environment knobs onto `base` (env wins, matching the other RDP_*
/// knobs so a wrapper script can retrofit checkpointing onto any run).
DurableOptions resolve_durable_options(DurableOptions base);

/// Serialize/deserialize one snapshot. Exposed (rather than private to
/// DurableCheckpointer) so the corruption tests can flip bytes in every
/// section and assert each one is detected. deserialize_snapshot never
/// throws on hostile bytes: any structural damage, checksum mismatch, or
/// fingerprint mismatch returns false with a diagnostic in `error`.
std::vector<uint8_t> serialize_snapshot(const PipelineSnapshot& snap,
                                        uint64_t fingerprint,
                                        uint64_t generation);
bool deserialize_snapshot(const std::vector<uint8_t>& bytes,
                          uint64_t fingerprint, PipelineSnapshot* out,
                          uint64_t* generation, std::string* error);

/// The two-generation journal. Construction scans the directory so new
/// saves continue the generation sequence past whatever valid snapshots
/// already exist (a resumed run's saves must stay the newest).
class DurableCheckpointer {
public:
    DurableCheckpointer() = default;  ///< disabled
    DurableCheckpointer(const DurableOptions& opts, uint64_t fingerprint);

    /// False when no directory is configured or a write failure degraded
    /// the layer to in-memory-only recovery.
    bool enabled() const { return !opts_.dir.empty() && !degraded_; }
    int every() const { return opts_.every < 1 ? 1 : opts_.every; }
    uint64_t generation() const { return generation_; }

    /// Persist one snapshot as the next generation. Any I/O failure
    /// warns once and permanently degrades (the run itself continues).
    void save(const PipelineSnapshot& snap);

    /// Honour the resume request ("" = none, "auto" = newest valid
    /// generation in the journal, else an explicit snapshot path).
    /// Corrupt or mismatched candidates warn and fall back — to the
    /// previous generation under "auto", else to a clean start.
    std::optional<PipelineSnapshot> load_resume();

    /// Journal slot file that generation `generation` occupies.
    std::string slot_path(uint64_t generation) const;

private:
    DurableOptions opts_;
    uint64_t fingerprint_ = 0;
    uint64_t generation_ = 0;
    bool degraded_ = false;
};

}  // namespace rdp::recover
