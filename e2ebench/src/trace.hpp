#pragma once
// In-memory span recorder for the traced benchmark binary.
//
// Spans are opened around the public entry points of the placer's layers
// (see trace_wraps.cpp, linked with -Wl,--wrap) and around the benchmark's
// own calls into GlobalPlacer::place / evaluate_placement. Each span keeps
// its name, start, end, parent span and run id; spans stay in per-thread
// buffers until collect() moves them out, so recording never does I/O.
//
// Parent links follow the calling thread's open spans. Work that the
// placer hands to its thread pool inherits the span that was open where
// the work was submitted (InheritParent), so pool-side spans nest under
// the layer that submitted them instead of floating at the root.

#include <cstdint>
#include <string>
#include <vector>

namespace e2e::trace {

struct Span {
    const char* name = "";  ///< static string literal
    int64_t id = 0;         ///< unique per process, > 0
    int64_t parent = 0;     ///< 0 = no parent
    int run = 0;            ///< run id set by set_run()
    int64_t start_ns = 0;   ///< steady clock
    int64_t end_ns = 0;
    double seconds() const {
        return static_cast<double>(end_ns - start_ns) * 1e-9;
    }
};

/// A count reported from inside a span (taken from a layer's result
/// struct or arguments), attributed to the innermost open span.
struct Count {
    const char* key = "";  ///< static string literal
    int64_t span = 0;      ///< 0 = reported outside any span
    int64_t value = 0;
};

struct Recording {
    std::vector<Span> spans;  ///< sorted by id
    std::vector<Count> counts;
};

/// Recording switch (default off). While off, Scope and count() do
/// nothing.
void set_enabled(bool on);
bool enabled();

/// Run id stamped on spans closed from now on.
void set_run(int run);

int64_t now_ns();

/// Id of the innermost open span of this thread (0 = none).
int64_t current();

/// RAII span. Inactive (no record) when tracing is off at construction.
class Scope {
public:
    explicit Scope(const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    const char* name_;
    int64_t id_ = 0;
    int64_t parent_ = 0;
    int64_t start_ = 0;
};

/// While alive, spans opened on this thread take `parent` as their parent
/// when no span of the thread itself is open inside it.
class InheritParent {
public:
    explicit InheritParent(int64_t parent);
    ~InheritParent();
    InheritParent(const InheritParent&) = delete;
    InheritParent& operator=(const InheritParent&) = delete;

private:
    bool pushed_ = false;
};

void count(const char* key, int64_t value);

/// Move everything recorded so far out of all thread buffers. Call only
/// while no traced work runs.
Recording collect();

// ---- analysis ---------------------------------------------------------

/// Per-span self time in seconds: duration minus the measure of the union
/// of its children's intervals clipped to the span's own interval.
std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Id lookups over spans sorted by id (as collect() returns them).
class SpanIndex {
public:
    explicit SpanIndex(const std::vector<Span>& spans) : spans_(spans) {}
    /// Index of the span with this id, or -1.
    long find(int64_t id) const;
    /// Index of the nearest ancestor of the span with id `id` (itself
    /// included) named `name`, or -1.
    long enclosing(int64_t id, const std::string& name) const;

private:
    const std::vector<Span>& spans_;
};

/// Write spans as CSV (id,parent,run,name,start_ns,end_ns).
bool write_csv(const std::vector<Span>& spans, const std::string& path);

}  // namespace e2e::trace
