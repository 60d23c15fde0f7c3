#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>

#include "benchgen/generator.hpp"
#include "benchgen/ispd_suite.hpp"
#include "db/netlist_io.hpp"
#include "eval/route_metrics.hpp"
#include "legal/tetris.hpp"
#include "recover/durable_checkpoint.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace e2e {

namespace fs = std::filesystem;
using namespace rdp;

namespace {

struct Workload {
    std::string name;
    std::string design;  ///< ispd2015_suite entry
    double scale = 1.0;  ///< ispd2015_suite cell-count scale
    bool rudy = false;   ///< RUDY congestion instead of the router
    int threads = 1;
    bool journal = false;  ///< durable checkpoint journal in a fresh dir
    int inputs = 1;        ///< placer seeds placed for the quality tuple
    QualityBounds bounds;
};

// Why these workloads (README.md has the measured shares):
//  - congested-ours-t1: the paper's flow on its most congested suite
//    design; the global router in the loop and at evaluation makes it
//    router-bound, so router-search work shows in place_s and eval_s.
//  - spread-rudy-t1: a large, low-utilization design placed with RUDY
//    congestion, so no router runs inside the loop: place_s is the WA,
//    density, net-moving and Poisson kernels, and a router change may move
//    only eval_s here.
//  - congested-ours-t4-ckpt: the first workload at 4 threads with the
//    durable journal on: thread scaling against the 1-thread figures and
//    the only checkpoint-write path; its output must equal the 1-thread
//    output bit for bit.
// des_perf_a runs at half its suite size: at full size one place + eval
// takes ~15 s, and four runs per invocation would not fit the run budget.
// Each quality bound runs from 0.8x the smallest to 1.2x the largest
// value that one input (placer seed) reached over --seed 11-15, rounded
// outwards to three digits. Seeds alone move #DRVs by +-21-27% around the
// middle of its range (22.0k-38.1k on des_perf_a, 18.8k-29.0k on
// superblue14), so the drvs range is wide; the other three vary by under
// +-3%.
const std::vector<Workload>& workloads() {
    static const QualityBounds kDesPerfA{1.45e5, 2.31e5, 1.51e5, 2.42e5,
                                         21900,  34800,  17500,  45800};
    static const std::vector<Workload> w = {
        {"congested-ours-t1", "des_perf_a", 0.5, false, 1, false, 4,
         kDesPerfA},
        {"spread-rudy-t1", "superblue14", 1.0, true, 1, false, 3,
         {7.15e5, 1.13e6, 7.43e5, 1.17e6, 50400, 78000, 15000, 34800}},
        {"congested-ours-t4-ckpt", "des_perf_a", 0.5, false, 4, true, 4,
         kDesPerfA},
    };
    return w;
}

const Workload* find_workload(const std::string& name) {
    for (const Workload& w : workloads())
        if (w.name == name) return &w;
    return nullptr;
}

uint64_t netlist_hash(const Design& d) {
    std::ostringstream ss;
    write_design(d, ss);
    const std::string text = ss.str();
    return recover::fnv1a64(text.data(), text.size());
}

}  // namespace

std::vector<std::string> check_output(const Design& input,
                                      const PlaceResult& res,
                                      const Quality& q,
                                      const QualityBounds& b) {
    std::vector<std::string> out;
    const Design& d = res.placed;
    const std::vector<std::string> problems = d.validate();
    if (!problems.empty())
        out.push_back("validate: " + std::to_string(problems.size()) +
                      " problems, first: " + problems.front());
    if (!is_legal(d)) out.push_back("is_legal: placement is not legal");
    if (d.num_cells() != input.num_cells())
        out.push_back("cell count " + std::to_string(d.num_cells()) +
                      " != input " + std::to_string(input.num_cells()));
    if (res.legal_stats.cells_failed > 0)
        out.push_back("tetris: " +
                      std::to_string(res.legal_stats.cells_failed) +
                      " cells failed");
    if (res.recovery.degraded_stages > 0)
        out.push_back(std::to_string(res.recovery.degraded_stages) +
                      " stages degraded");
    auto range = [&](const char* what, double v, double lo, double hi) {
        if (v >= lo && v <= hi) return;
        std::ostringstream ss;
        ss.precision(17);
        ss << what << " " << v << " outside [" << lo << ", " << hi << "]";
        out.push_back(ss.str());
    };
    range("hpwl", q.hpwl, b.hpwl_min, b.hpwl_max);
    range("drwl", q.drwl, b.drwl_min, b.drwl_max);
    range("vias", static_cast<double>(q.vias), static_cast<double>(b.vias_min),
          static_cast<double>(b.vias_max));
    range("drvs", static_cast<double>(q.drvs), static_cast<double>(b.drvs_min),
          static_cast<double>(b.drvs_max));
    return out;
}

int count_failed(const std::vector<RunOutcome>& runs) {
    std::map<uint64_t, uint64_t> first_hash;  // input -> hash
    int failed = 0;
    for (const RunOutcome& r : runs) {
        const uint64_t h = first_hash.emplace(r.input, r.hash).first->second;
        if (!r.problems.empty() || r.hash != h) ++failed;
    }
    return failed;
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

}  // namespace

RunOutcome place_and_evaluate(const Design& input, const QualityBounds& bounds,
                              const PlacerConfig& cfg, const EvalConfig& ec) {
    RunOutcome out;
    out.input = cfg.seed;
    try {
        const auto t0 = std::chrono::steady_clock::now();
        PlaceResult res;
        {
            const trace::Scope s("bench.place");
            res = GlobalPlacer(cfg).place(input);
        }
        const auto t1 = std::chrono::steady_clock::now();
        EvalMetrics m;
        {
            const trace::Scope s("bench.eval");
            m = evaluate_placement(res.placed, ec);
        }
        out.eval_s = seconds_since(t1);
        out.place_s = std::chrono::duration<double>(t1 - t0).count();
        out.quality = {res.hpwl_final, m.drwl, m.vias, m.drvs};
        out.hash = netlist_hash(res.placed);
        out.wl_iters = res.wl_iters;
        out.route_outer_iters = res.route_outer_iters;
        out.cells_failed = res.legal_stats.cells_failed;
        out.rollbacks = res.recovery.rollbacks;
        out.degraded_stages = res.recovery.degraded_stages;
        out.problems = check_output(input, res, out.quality, bounds);
    } catch (const std::exception& e) {
        out.problems.push_back(std::string("threw: ") + e.what());
    }
    return out;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- per-layer metrics ------------------------------------------------------

namespace {

/// Counts that must repeat exactly between traced runs and also match
/// between 1 and 4 threads.
const std::vector<std::string>& thread_invariant_metrics() {
    static const std::vector<std::string> m = {
        "router.maze_calls",          "router.pattern_calls",
        "router.route_calls",         "router.rrr_rounds_executed",
        "router.rrr_rounds_stalled",  "eval.maze_calls",
        "place.objective_eval_calls", "place.wl_iters",
        "place.route_outer_iters",    "congestion.rudy_calls",
        "poisson.solve_calls",
    };
    return m;
}

/// Counts that must repeat exactly between traced runs.
const std::vector<std::string>& exact_count_metrics() {
    static const std::vector<std::string> m = [] {
        std::vector<std::string> v = thread_invariant_metrics();
        v.push_back("recover.checkpoint_writes");
        v.push_back("recover.checkpoint_bytes");
        return v;
    }();
    return m;
}

}  // namespace

LayerMetrics layer_metrics(const trace::Recording& rec, const RunOutcome& run) {
    const std::vector<trace::Span>& spans = rec.spans;
    const trace::SpanIndex index(spans);
    const std::vector<double> self = trace::self_seconds(spans);

    // Per (part, span name): calls, inclusive and self seconds, where part
    // is the enclosing bench span ("place" or "eval").
    struct Agg {
        double calls = 0, incl = 0, self = 0;
    };
    std::map<std::string, Agg> agg;
    double place_wall = 0, eval_wall = 0;
    int64_t place_start = 0;
    int64_t stage1_end = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        const trace::Span& s = spans[i];
        const std::string name = s.name;
        if (name == "bench.place") {
            place_wall += s.seconds();
            place_start = s.start_ns;
        } else if (name == "bench.eval") {
            eval_wall += s.seconds();
        }
        const char* part = index.enclosing(s.id, "bench.place") >= 0 ? "place"
                           : index.enclosing(s.id, "bench.eval") >= 0 ? "eval"
                                                                      : "none";
        for (const std::string& key : {std::string(part) + ":" + name,
                                       std::string("all:") + name}) {
            Agg& a = agg[key];
            a.calls += 1;
            a.incl += s.seconds();
            a.self += self[i];
        }
        if ((name == "place.routability_stage" || name == "legal.tetris") &&
            (stage1_end == 0 || s.start_ns < stage1_end))
            stage1_end = s.start_ns;
    }
    // Counts from the layers' result structs, summed per part.
    std::map<std::string, double> counts;
    for (const trace::Count& c : rec.counts) {
        const char* part = index.enclosing(c.span, "bench.place") >= 0 ? "place"
                           : index.enclosing(c.span, "bench.eval") >= 0
                               ? "eval"
                               : "none";
        std::string key = std::string(part) + ":" + c.key;
        if (std::string(c.key) == "bytes_written" &&
            index.enclosing(c.span, "recover.checkpoint_save") >= 0)
            key = "checkpoint_bytes";
        counts[key] += static_cast<double>(c.value);
    }

    auto calls = [&](const std::string& k) { return agg[k].calls; };
    auto incl = [&](const std::string& k) { return agg[k].incl; };
    auto selfs = [&](const std::string& k) { return agg[k].self; };
    const double run_wall = place_wall + eval_wall;

    LayerMetrics m;
    m["router.maze_calls"] = calls("place:router.maze_route");
    m["router.maze_s"] = incl("place:router.maze_route");
    m["router.maze_share"] =
        run_wall > 0 ? incl("all:router.maze_route") / run_wall : 0.0;
    m["router.pattern_calls"] = calls("place:router.pattern_route");
    m["router.pattern_s"] = incl("place:router.pattern_route");
    m["router.route_calls"] = calls("place:router.route");
    m["router.route_s"] = incl("place:router.route");
    m["router.route_self_s"] = selfs("place:router.route");
    m["router.rrr_rounds_executed"] = counts["place:rrr_rounds_executed"];
    m["router.rrr_rounds_stalled"] = counts["place:rrr_rounds_stalled"];
    const double total = counts["place:inc_conns_total"];
    m["router.conns_rerouted_frac"] =
        total > 0 ? counts["place:inc_conns_rerouted"] / total : 0.0;

    m["eval.route_s"] = incl("eval:router.route");
    m["eval.route_self_s"] = selfs("eval:router.route");
    m["eval.maze_calls"] = calls("eval:router.maze_route");
    m["eval.maze_s"] = incl("eval:router.maze_route");
    m["eval.drv_proxy_s"] = incl("eval:eval.drv_proxy");

    m["place.objective_eval_calls"] = calls("place:place.objective_eval");
    m["place.objective_eval_s"] = incl("place:place.objective_eval");
    m["place.objective_eval_self_s"] = selfs("place:place.objective_eval");
    m["place.nesterov_step_s"] = incl("place:place.nesterov_step");
    m["place.stage1_s"] =
        stage1_end > place_start
            ? static_cast<double>(stage1_end - place_start) * 1e-9
            : 0.0;
    m["place.routability_stage_s"] = incl("place:place.routability_stage");
    m["place.routability_stage_self_s"] =
        selfs("place:place.routability_stage");
    m["place.self_s"] = selfs("all:bench.place");
    m["place.wl_iters"] = run.wl_iters;
    m["place.route_outer_iters"] = run.route_outer_iters;

    m["wirelength.wa_s"] = incl("place:wirelength.wa");
    m["density.evaluate_s"] = incl("place:density.evaluate");
    m["density.evaluate_self_s"] = selfs("place:density.evaluate");
    m["congestion.net_moving_s"] = incl("place:congestion.net_moving");
    m["congestion.field_build_s"] = incl("place:congestion.field_build");
    m["congestion.rudy_calls"] = calls("place:congestion.rudy");
    m["congestion.rudy_s"] = incl("place:congestion.rudy");

    m["poisson.solve_calls"] = calls("all:poisson.solve");
    m["poisson.solve_s"] = incl("all:poisson.solve");

    m["legal.tetris_s"] = incl("place:legal.tetris");
    m["legal.abacus_s"] = incl("place:legal.abacus");
    m["legal.detailed_place_s"] = incl("place:legal.detailed_place");
    m["legal.cells_failed"] = run.cells_failed;

    m["recover.checkpoint_writes"] = calls("place:recover.checkpoint_save");
    m["recover.checkpoint_bytes"] = counts["checkpoint_bytes"];
    m["recover.checkpoint_s"] = incl("place:recover.checkpoint_save");
    m["recover.rollbacks"] = run.rollbacks;
    m["recover.degraded_stages"] = run.degraded_stages;
    return m;
}

namespace {

std::string layer_unit(const std::string& name) {
    auto ends = [&](const std::string& suffix) {
        return name.size() >= suffix.size() &&
               name.compare(name.size() - suffix.size(), suffix.size(),
                            suffix) == 0;
    };
    if (ends("_s")) return "s";
    if (ends("_frac") || ends("_share")) return "frac";
    if (ends("_bytes")) return "B";
    return "count";
}

// ---- one benchmark invocation ----------------------------------------------

// Set-up is timed kSetupFirstReps times before the runs and
// kSetupRunReps times before each run; setup_s is the median of all. On a
// shared host one set-up of the same design takes 1x or up to 1.7x the
// fastest time, from one repeat to the next and for seconds at a time, so
// many samples spread over the whole invocation vary less between
// invocations than a short burst.
constexpr int kSetupFirstReps = 8;
constexpr int kSetupRunReps = 4;
/// Runs of a traced invocation, at the least (U T T U): two untraced and
/// two traced runs, placed symmetrically in time so that a drift in host
/// speed does not read as tracing overhead.
constexpr int kTracedMinRuns = 4;

struct Metric {
    std::string name, unit;
    double value;
};

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics) {
    std::string s = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        if (i) s += ", ";
        s += "\"" + metrics[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    s += "}}";
    std::cout << s << std::endl;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (static_cast<unsigned char>(c) < 0x20) continue;
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

void print_context(const Options& opt, const Workload& w) {
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
#ifdef RDP_AUDIT
    const bool audit_compiled = true;
#else
    const bool audit_compiled = false;
#endif
    auto flag = [](bool b) { return b ? "true" : "false"; };
    std::cout << "{\"context\": {\"workload\": \"" << w.name
              << "\", \"seed\": " << opt.seed
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"threads\": " << w.threads << ", \"compiler\": \""
              << json_escape(compiler) << "\", \"build_type\": \""
              << E2E_BUILD_TYPE << "\", \"simd_backend\": \""
              << simd::backend_name()
              << "\", \"simd_fma\": " << flag(simd::fma_enabled())
              << ", \"rdp_audit_compiled\": " << flag(audit_compiled)
              << ", \"rdp_audit_enabled\": " << flag(audit_enabled())
              << ", \"commit\": \"" << json_escape(opt.commit)
              << "\", \"src_lines\": " << opt.src_lines
              << ", \"tools_lines\": " << opt.tools_lines
              << ", \"traced\": " << flag(opt.trace) << "}}" << std::endl;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void report(const char* tag, const RunOutcome& r) {
    for (const std::string& p : r.problems)
        std::cout << "FAIL " << tag << ": " << p << "\n";
    std::cout << tag << ": place " << r.place_s << " s, eval " << r.eval_s
              << " s, iters " << r.wl_iters << "+" << r.route_outer_iters
              << ", placer seed " << r.input << ", quality " << r.quality.hpwl
              << " " << r.quality.drwl << " " << r.quality.vias << " "
              << r.quality.drvs << ", hash " << std::hex << r.hash << std::dec
              << std::endl;
}

/// Generates the workload's design, writes it as a netlist file and reads
/// it back, `reps` times; appends each time to `times` and returns the
/// design read.
Design set_up(const SuiteEntry& entry, const std::string& path, int reps,
              std::vector<double>& times) {
    Design input;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        write_design_file(generate_circuit(entry.gen), path);
        input = read_design_file(path);
        times.push_back(seconds_since(t0));
    }
    std::error_code ec;
    fs::remove(path, ec);
    return input;
}

}  // namespace

int run_benchmark(const Options& opt) {
    const Workload* wp = find_workload(opt.workload);
    if (wp == nullptr) {
        std::cerr << "unknown workload '" << opt.workload << "'\n";
        return 2;
    }
    const Workload& w = *wp;
    const std::string tag = std::to_string(::getpid());
    std::error_code ec_fs;
    fs::create_directories(opt.out_dir, ec_fs);
    if (ec_fs) {
        std::cerr << "cannot create " << opt.out_dir << ": "
                  << ec_fs.message() << "\n";
        return 1;
    }
    print_context(opt, w);

    // The design is the workload's fixed suite design (benchgen with the
    // suite's own generator seed, as in the Table I bench); --seed derives
    // the placer seeds (initial placement and fillers) of the inputs placed.
    // A per-seed netlist moved #DRVs from 11k to 36k on des_perf_a, which
    // no run length can steady.
    const SuiteEntry entry = suite_entry(w.design, w.scale);
    const std::string netlist =
        opt.out_dir + "/" + w.name + "-" + tag + ".netlist";
    std::vector<double> setup_times;
    Design input;
    try {
        input = set_up(entry, netlist, kSetupFirstReps, setup_times);
    } catch (const std::exception& e) {
        std::cerr << "set-up failed: " << e.what() << "\n";
        return 1;
    }
    if (const auto problems = input.validate(); !problems.empty()) {
        std::cerr << "generated design invalid: " << problems.front() << "\n";
        return 1;
    }

    PlacerConfig cfg;
    cfg.mode = PlacerMode::Ours;
    cfg.grid_bins = entry.grid_bins;
    cfg.use_rudy_congestion = w.rudy;
    // Fixed work: the routability loop runs exactly 10 outer iterations
    // instead of stopping after stop_patience non-improving ones (the paper
    // allows either). The default early stop fired anywhere from 9 to 16
    // iterations across seeds (16 is the default cap), which swung place_s
    // by 2x. 10 rather than 16 cuts a congested run from ~11 s to ~8 s,
    // so four inputs per invocation fit the benchmark's time budget;
    // keep-best still returns the best snapshot of the iterations run.
    cfg.max_route_iters = 10;
    cfg.stop_patience = cfg.max_route_iters;
    EvalConfig ec;
    ec.grid_bins = entry.grid_bins * 2;

    std::vector<RunOutcome> runs;
    std::vector<LayerMetrics> traced;  // per traced timed run
    std::vector<double> place_s, eval_s, run_s;  // untraced timed runs
    std::vector<double> traced_run_s;
    std::vector<trace::Span> last_spans;  // of the last traced run

    auto run = [&](const PlacerConfig& c, bool traced_run, int run_id) {
        if (!traced_run)
            return std::make_pair(place_and_evaluate(input, w.bounds, c, ec),
                                  LayerMetrics{});
        trace::set_run(run_id);
        trace::set_enabled(true);
        RunOutcome r = place_and_evaluate(input, w.bounds, c, ec);
        trace::set_enabled(false);
        trace::Recording rec = trace::collect();
        LayerMetrics lm = layer_metrics(rec, r);
        last_spans = std::move(rec.spans);
        return std::make_pair(std::move(r), std::move(lm));
    };

    // Config of input k of this invocation: its placer seed.
    auto with_seed = [&](int k) {
        PlacerConfig c = cfg;
        c.seed = opt.seed * 1000 + static_cast<uint64_t>(k);
        return c;
    };

    // Untimed reference run of input 0 at 1 thread. A multi-thread workload
    // checks every run of input 0 against it, and in a traced invocation it
    // is traced, so the layer counts are compared across thread counts too.
    // A traced invocation always makes it: the first run of a process pays
    // ~15% extra (glibc's malloc thresholds adapt during it), and the
    // untraced-vs-traced comparison must not charge that to either side.
    std::optional<RunOutcome> reference;
    LayerMetrics reference_layers;
    const bool multi_thread = w.threads != 1;
    if (multi_thread || opt.trace) {
        par::set_max_threads(1);
        std::tie(reference, reference_layers) =
            run(with_seed(0), opt.trace && multi_thread, 0);
        report("reference 1-thread run", *reference);
    }
    par::set_max_threads(w.threads);

    // Timed runs. An untraced invocation first places the workload's fixed
    // inputs 0 .. inputs-1, whatever --seconds says: the quality tuple is
    // their mean, so it never depends on how fast the host is. Runs after
    // those cycle through the same inputs again while the next would still
    // end within --seconds; they add timing samples only, and each must
    // hash-equal the first run of its input. A traced invocation places
    // input 0 only, alternating untraced and traced runs
    // (U T T U U T T U ...), so the tracing overhead and the exact counts
    // compare like with like.
    const int fixed_runs = opt.trace ? kTracedMinRuns : w.inputs;
    const auto loop_start = std::chrono::steady_clock::now();
    for (int i = 0;; ++i) {
        const double last = runs.empty()
                                ? 0.0
                                : runs.back().place_s + runs.back().eval_s;
        if (i >= fixed_runs && seconds_since(loop_start) + last > opt.seconds)
            break;
        try {
            set_up(entry, netlist, kSetupRunReps, setup_times);
        } catch (const std::exception& e) {
            std::cerr << "set-up failed: " << e.what() << "\n";
            return 1;
        }
        const int k = opt.trace ? 0 : i % w.inputs;
        const bool traced_run = opt.trace && (i % 4 == 1 || i % 4 == 2);
        PlacerConfig c = with_seed(k);
        if (w.journal) {
            c.durable.dir = opt.out_dir + "/journal-" + tag + "-" +
                            std::to_string(i);
            fs::remove_all(c.durable.dir, ec_fs);
        }
        auto [r, lm] = run(c, traced_run, i + 1);
        if (w.journal) {
            // The journal must hold a published snapshot after the run.
            bool any = false;
            for (const char* slot : {"/ckpt-a.bin", "/ckpt-b.bin"})
                any = any || fs::file_size(c.durable.dir + slot, ec_fs) > 0;
            if (!any) r.problems.push_back("no checkpoint in " + c.durable.dir);
            fs::remove_all(c.durable.dir, ec_fs);
        }
        if (reference && k == 0 && r.quality != reference->quality)
            r.problems.push_back("quality tuple differs from the 1-thread run");
        if (traced_run) {
            traced_run_s.push_back(r.place_s + r.eval_s);
            traced.push_back(std::move(lm));
        } else {
            place_s.push_back(r.place_s);
            eval_s.push_back(r.eval_s);
            run_s.push_back(r.place_s + r.eval_s);
        }
        report(traced_run ? "traced run" : "run", r);
        runs.push_back(std::move(r));
    }

    // Exact-count check: between traced runs, and across thread counts.
    std::vector<std::string> count_problems;
    for (size_t t = 1; t < traced.size(); ++t)
        for (const std::string& k : exact_count_metrics())
            if (traced[t].at(k) != traced[0].at(k))
                count_problems.push_back(k + " differs between traced runs");
    if (multi_thread && opt.trace)
        for (const std::string& k : thread_invariant_metrics())
            if (reference_layers.at(k) != traced[0].at(k))
                count_problems.push_back(k + " differs between 1 and " +
                                         std::to_string(w.threads) +
                                         " threads");
    for (const std::string& p : count_problems)
        std::cout << "FAIL counts: " << p << "\n";

    std::cout << "setup samples (s):";
    for (double t : setup_times) std::cout << " " << t;
    std::cout << std::endl;

    // Quality: mean over the distinct inputs placed, the fixed inputs of
    // the workload (before the reference joins the list; it repeats input
    // 0).
    Quality mean;
    {
        std::map<uint64_t, Quality> by_input;
        for (const RunOutcome& r : runs) by_input.emplace(r.input, r.quality);
        const double n = static_cast<double>(by_input.size());
        double vias = 0, drvs = 0;
        for (const auto& [seed, q] : by_input) {
            mean.hpwl += q.hpwl / n;
            mean.drwl += q.drwl / n;
            vias += static_cast<double>(q.vias) / n;
            drvs += static_cast<double>(q.drvs) / n;
        }
        mean.vias = std::llround(vias);
        mean.drvs = std::llround(drvs);
    }

    // Every run of one input must place bit-identically, at any thread
    // count (the reference goes first, so it is what the others match).
    if (reference) runs.insert(runs.begin(), *reference);
    const int attempted = static_cast<int>(runs.size());
    const int failed = std::min(
        attempted,
        count_failed(runs) + static_cast<int>(count_problems.size()));

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"setup_s", "s", median(setup_times)},
            {"place_s", "s", median(place_s)},
            {"eval_s", "s", median(eval_s)},
            {"run_s", "s", median(run_s)},
            {"peak_rss_mb", "MB", peak_rss_mb()},
            {"hpwl", "dbu", mean.hpwl},
            {"drwl", "dbu", mean.drwl},
            {"vias", "count", static_cast<double>(mean.vias)},
            {"drvs", "count", static_cast<double>(mean.drvs)},
            {"ok_frac", "frac",
             static_cast<double>(attempted - failed) / attempted},
        };
    } else {
        // Times are medians over the traced runs; counts repeat exactly
        // across them (checked above).
        for (const auto& [name, v0] : traced.front()) {
            std::vector<double> vals;
            for (const LayerMetrics& lm : traced) vals.push_back(lm.at(name));
            metrics.push_back({name, layer_unit(name), median(vals)});
        }
        const double u = median(run_s);
        const double t = median(traced_run_s);
        metrics.push_back({"trace.overhead_frac", "frac", t / u - 1.0});

        std::cout << "share of traced run_s (" << t << " s):\n";
        for (const Metric& m : metrics) {
            if (m.unit != "s") continue;
            char line[160];
            std::snprintf(line, sizeof line, "  %-32s %9.4f s %6.1f%%\n",
                          m.name.c_str(), m.value, 100 * m.value / t);
            std::cout << line;
        }
        const std::string csv = opt.out_dir + "/spans-" + w.name + ".csv";
        if (trace::write_csv(last_spans, csv))
            std::cout << last_spans.size() << " spans written to " << csv
                      << "\n";
        else
            std::cout << "warning: cannot write " << csv << "\n";
    }
    print_result(failed == 0, attempted, failed, metrics);
    return 0;
}

}  // namespace e2e
