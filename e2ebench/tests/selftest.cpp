// Tests of the benchmark itself: its failure accounting and its trace
// arithmetic. Run with `python3 e2ebench/run.py --selftest`.

#include <gtest/gtest.h>

#include <thread>

#include "bench.hpp"
#include "benchgen/generator.hpp"
#include "legal/tetris.hpp"
#include "trace.hpp"

namespace {

using namespace rdp;
using e2e::trace::Span;

constexpr e2e::QualityBounds kWide{0, 1e30, 0, 1e30,
                                   0, 1LL << 60, 0, 1LL << 60};

Design small_design() {
    GeneratorConfig g;
    g.num_cells = 200;
    g.num_macros = 0;
    g.num_ios = 16;
    g.utilization = 0.5;
    return generate_circuit(g);
}

PlaceResult legalized(const Design& input) {
    PlaceResult res;
    res.placed = input;
    res.legal_stats = tetris_legalize(res.placed);
    return res;
}

TEST(CheckOutput, LegalPlacementPasses) {
    const Design input = small_design();
    const PlaceResult res = legalized(input);
    ASSERT_TRUE(is_legal(res.placed));
    EXPECT_TRUE(e2e::check_output(input, res, {}, kWide).empty());
}

TEST(CheckOutput, IllegalPlacementCountsAsFailedRun) {
    const Design input = small_design();
    PlaceResult res = legalized(input);
    // Stack every movable cell on the first one: overlaps everywhere.
    const Vec2 p = res.placed.cells[static_cast<size_t>(
                                        res.placed.movable_cells().front())]
                       .pos;
    for (Cell& c : res.placed.cells)
        if (c.movable()) c.pos = p;
    ASSERT_FALSE(is_legal(res.placed));

    e2e::RunOutcome bad;
    bad.problems = e2e::check_output(input, res, {}, kWide);
    EXPECT_FALSE(bad.problems.empty());
    e2e::RunOutcome good;
    EXPECT_EQ(e2e::count_failed({good, bad, good}), 1);
}

TEST(CheckOutput, LostCellsDegradedStagesAndBoundsFail) {
    const Design input = small_design();
    PlaceResult res = legalized(input);
    res.placed.cells.pop_back();
    res.recovery.degraded_stages = 1;
    e2e::QualityBounds tight = kWide;
    tight.drvs_max = 10;
    e2e::Quality q;
    q.drvs = 11;
    const auto problems = e2e::check_output(input, res, q, tight);
    EXPECT_GE(problems.size(), 3u);  // cell count, degraded, drvs range
}

TEST(CountFailed, MismatchedHashCountsAsFailedRun) {
    e2e::RunOutcome a, b, c, other;
    a.hash = b.hash = 0x1234;
    c.hash = 0x1235;
    other.input = 7;  // another input may place differently
    other.hash = 0x9999;
    EXPECT_EQ(e2e::count_failed({a, b, other}), 0);
    EXPECT_EQ(e2e::count_failed({a, b, c, other}), 1);
    EXPECT_EQ(e2e::count_failed({c, a, b}), 2);  // the first run sets the hash
}

TEST(CountFailed, RunsAreGroupedByTheirPlacerSeed) {
    // Placing the same input twice tags both runs with the placer seed and
    // places them identically; a run of that seed with another hash (here
    // a reference whose output was altered) fails, whichever comes first.
    const Design input = small_design();
    PlacerConfig cfg;
    cfg.grid_bins = 16;
    cfg.max_wl_iters = 60;
    cfg.max_route_iters = 2;
    cfg.seed = 4242;
    EvalConfig ec;
    ec.grid_bins = 32;
    const e2e::RunOutcome a = e2e::place_and_evaluate(input, kWide, cfg, ec);
    const e2e::RunOutcome b = e2e::place_and_evaluate(input, kWide, cfg, ec);
    ASSERT_TRUE(a.problems.empty()) << a.problems.front();
    EXPECT_EQ(a.input, 4242u);
    EXPECT_EQ(b.input, 4242u);
    EXPECT_EQ(a.hash, b.hash);
    EXPECT_EQ(e2e::count_failed({a, b}), 0);

    e2e::RunOutcome reference = a;
    reference.hash ^= 1;
    EXPECT_EQ(e2e::count_failed({reference, a, b}), 2);
    EXPECT_EQ(e2e::count_failed({a, reference, b}), 1);
}

TEST(SelfTime, DurationMinusUnionOfChildren) {
    // parent [0,100]; children A [10,30] and B [20,50] overlap (pool
    // threads), C [90,120] sticks out of the parent; D [12,15] is A's
    // child and must not count against the parent.
    const std::vector<Span> spans = {
        {"parent", 1, 0, 0, 0, 100},  {"A", 2, 1, 0, 10, 30},
        {"B", 3, 1, 0, 20, 50},       {"C", 4, 1, 0, 90, 120},
        {"D", 5, 2, 0, 12, 15},
    };
    const std::vector<double> self = e2e::trace::self_seconds(spans);
    EXPECT_DOUBLE_EQ(self[0], (100 - 40 - 10) * 1e-9);
    EXPECT_DOUBLE_EQ(self[1], (20 - 3) * 1e-9);
    EXPECT_DOUBLE_EQ(self[2], 30 * 1e-9);
    EXPECT_DOUBLE_EQ(self[3], 30 * 1e-9);
    EXPECT_DOUBLE_EQ(self[4], 3 * 1e-9);
}

TEST(Trace, NestingCountsAndPoolInheritance) {
    e2e::trace::collect();
    e2e::trace::set_enabled(true);
    {
        const e2e::trace::Scope place("bench.place");
        { const e2e::trace::Scope m("router.maze_route"); }
        {
            const e2e::trace::Scope r("router.route");
            e2e::trace::count("rrr_rounds_executed", 2);
            e2e::trace::count("inc_conns_total", 10);
            e2e::trace::count("inc_conns_rerouted", 4);
            const int64_t parent = e2e::trace::current();
            std::thread worker([parent] {
                const e2e::trace::InheritParent inherit(parent);
                const e2e::trace::Scope m("router.maze_route");
            });
            worker.join();
        }
    }
    {
        const e2e::trace::Scope eval("bench.eval");
        { const e2e::trace::Scope m("router.maze_route"); }
    }
    { const e2e::trace::Scope outside("router.maze_route"); }
    e2e::trace::set_enabled(false);
    { const e2e::trace::Scope off("router.maze_route"); }

    const e2e::trace::Recording rec = e2e::trace::collect();
    ASSERT_EQ(rec.spans.size(), 7u);
    e2e::RunOutcome run;
    run.wl_iters = 7;
    const e2e::LayerMetrics m = e2e::layer_metrics(rec, run);
    EXPECT_EQ(m.at("router.maze_calls"), 2);  // incl. the pool-side call
    EXPECT_EQ(m.at("eval.maze_calls"), 1);
    EXPECT_EQ(m.at("router.route_calls"), 1);
    EXPECT_EQ(m.at("router.rrr_rounds_executed"), 2);
    EXPECT_DOUBLE_EQ(m.at("router.conns_rerouted_frac"), 0.4);
    EXPECT_EQ(m.at("place.wl_iters"), 7);
    EXPECT_TRUE(e2e::trace::collect().spans.empty());
}

TEST(Median, OddAndEven) {
    EXPECT_DOUBLE_EQ(e2e::median({3, 1, 2}), 2);
    EXPECT_DOUBLE_EQ(e2e::median({4, 1, 3, 2}), 2.5);
}

}  // namespace
