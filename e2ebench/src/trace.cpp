#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>

#include "util/io_atomic.hpp"

namespace e2e::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int> g_run{0};
std::atomic<int64_t> g_next_id{0};

/// One per thread that ever recorded. Owned by the registry so a buffer
/// outlives its thread; only its own thread appends, and collect() runs
/// while no traced work does.
struct ThreadBuffer {
    std::vector<Span> spans;
    std::vector<Count> counts;
};

struct Registry {
    std::mutex mu;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
    static Registry r;
    return r;
}

thread_local ThreadBuffer* tl_buffer = nullptr;
thread_local std::vector<int64_t> tl_open;  // ids of open spans, innermost last

ThreadBuffer& buffer() {
    if (tl_buffer == nullptr) {
        Registry& r = registry();
        const std::lock_guard<std::mutex> lock(r.mu);
        r.buffers.push_back(std::make_unique<ThreadBuffer>());
        tl_buffer = r.buffers.back().get();
    }
    return *tl_buffer;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_run(int run) { g_run.store(run); }

int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int64_t current() { return tl_open.empty() ? 0 : tl_open.back(); }

Scope::Scope(const char* name) : name_(name) {
    if (!enabled()) return;
    id_ = g_next_id.fetch_add(1, std::memory_order_relaxed) + 1;
    parent_ = current();
    tl_open.push_back(id_);
    start_ = now_ns();
}

Scope::~Scope() {
    if (id_ == 0) return;
    const int64_t end = now_ns();
    tl_open.pop_back();
    buffer().spans.push_back(
        {name_, id_, parent_, g_run.load(std::memory_order_relaxed), start_,
         end});
}

InheritParent::InheritParent(int64_t parent) {
    if (parent == 0 || current() == parent) return;
    tl_open.push_back(parent);
    pushed_ = true;
}

InheritParent::~InheritParent() {
    if (pushed_) tl_open.pop_back();
}

void count(const char* key, int64_t value) {
    if (!enabled()) return;
    buffer().counts.push_back({key, current(), value});
}

Recording collect() {
    Recording out;
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    for (const auto& b : r.buffers) {
        out.spans.insert(out.spans.end(), b->spans.begin(), b->spans.end());
        out.counts.insert(out.counts.end(), b->counts.begin(),
                          b->counts.end());
        b->spans.clear();
        b->counts.clear();
    }
    std::sort(out.spans.begin(), out.spans.end(),
              [](const Span& a, const Span& b) { return a.id < b.id; });
    return out;
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
    const SpanIndex index(spans);
    std::vector<std::vector<size_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const long p = index.find(spans[i].parent);
        if (p >= 0) children[static_cast<size_t>(p)].push_back(i);
    }
    std::vector<double> self(spans.size(), 0.0);
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        iv.clear();
        for (size_t c : children[i]) {
            const int64_t b = std::max(spans[c].start_ns, s.start_ns);
            const int64_t e = std::min(spans[c].end_ns, s.end_ns);
            if (e > b) iv.emplace_back(b, e);
        }
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0;
        int64_t cur_b = 0, cur_e = 0;
        bool open = false;
        for (const auto& [b, e] : iv) {
            if (open && b <= cur_e) {
                cur_e = std::max(cur_e, e);
                continue;
            }
            if (open) covered += cur_e - cur_b;
            cur_b = b;
            cur_e = e;
            open = true;
        }
        if (open) covered += cur_e - cur_b;
        self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
    }
    return self;
}

long SpanIndex::find(int64_t id) const {
    if (id == 0) return -1;
    const auto it = std::lower_bound(
        spans_.begin(), spans_.end(), id,
        [](const Span& s, int64_t v) { return s.id < v; });
    if (it == spans_.end() || it->id != id) return -1;
    return static_cast<long>(it - spans_.begin());
}

long SpanIndex::enclosing(int64_t id, const std::string& name) const {
    for (long i = find(id); i >= 0;
         i = find(spans_[static_cast<size_t>(i)].parent)) {
        if (name == spans_[static_cast<size_t>(i)].name) return i;
    }
    return -1;
}

bool write_csv(const std::vector<Span>& spans, const std::string& path) {
    std::string text = "id,parent,run,name,start_ns,end_ns\n";
    for (const Span& s : spans) {
        text += std::to_string(s.id) + ',' + std::to_string(s.parent) + ',' +
                std::to_string(s.run) + ',' + s.name + ',' +
                std::to_string(s.start_ns) + ',' + std::to_string(s.end_ns) +
                '\n';
    }
    return rdp::io::atomic_write(path, text);
}

}  // namespace e2e::trace
