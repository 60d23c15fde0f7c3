#pragma once
// End-to-end placement benchmark: one invocation places and evaluates a
// workload's design (GlobalPlacer::place then evaluate_placement) several
// times. Declared here: the output checks that decide whether a run
// failed, and the per-layer numbers derived from a traced run.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "eval/route_metrics.hpp"
#include "place/global_placer.hpp"
#include "trace.hpp"

namespace e2e {

/// Committed acceptance range of the quality tuple for one workload; a run
/// outside it fails. The ranges are wide enough to hold every placer seed
/// of the workload, so they catch a result-altering change of the placer,
/// not seed-to-seed variation.
struct QualityBounds {
    double hpwl_min, hpwl_max;
    double drwl_min, drwl_max;
    long long vias_min, vias_max;
    long long drvs_min, drvs_max;
};

struct Quality {
    double hpwl = 0.0;
    double drwl = 0.0;
    long long vias = 0;
    long long drvs = 0;
    bool operator==(const Quality&) const = default;
};

/// One place + evaluate run.
struct RunOutcome {
    uint64_t input = 0;  ///< placer seed: runs of one input must agree
    double place_s = 0.0;
    double eval_s = 0.0;
    Quality quality;
    uint64_t hash = 0;  ///< FNV-1a-64 of the placed netlist text
    int wl_iters = 0;
    int route_outer_iters = 0;
    int cells_failed = 0;
    int rollbacks = 0;
    int degraded_stages = 0;
    std::vector<std::string> problems;  ///< failed output checks
};

/// The output checks of one run: the placed design validates and is
/// legal, keeps the input's cell count, Tetris placed every cell, no stage
/// degraded, and the quality tuple lies within `bounds`. Returns one
/// message per failed check (empty = pass).
std::vector<std::string> check_output(const rdp::Design& input,
                                      const rdp::PlaceResult& res,
                                      const Quality& q,
                                      const QualityBounds& bounds);

/// Place `input` with `cfg` (GlobalPlacer::place), evaluate the result
/// (evaluate_placement) and check it (check_output). The outcome's input
/// is cfg.seed, the placer seed that count_failed groups runs by. An
/// exception is recorded as a problem.
RunOutcome place_and_evaluate(const rdp::Design& input,
                              const QualityBounds& bounds,
                              const rdp::PlacerConfig& cfg,
                              const rdp::EvalConfig& ec);

/// Runs that fail: a run fails when it has problems or its hash differs
/// from that of the first run of the same input (every run of one input
/// must place identically).
int count_failed(const std::vector<RunOutcome>& runs);

/// Per-layer metrics of one traced run, keyed by metric name.
using LayerMetrics = std::map<std::string, double>;

/// Derive the per-layer metrics from one traced run's recording. The
/// benchmark's own spans "bench.place" and "bench.eval" split the layer
/// spans into the in-loop (place) and evaluation (eval) parts.
LayerMetrics layer_metrics(const trace::Recording& rec, const RunOutcome& run);

double median(std::vector<double> v);

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".bench_out";
    std::string commit = "unknown";
    long long src_lines = -1;
    long long tools_lines = -1;
};

/// Run one benchmark invocation; prints progress and, as the last stdout
/// line, the result JSON. Returns the process exit code.
int run_benchmark(const Options& opt);

}  // namespace e2e
