/**
 * @file
 * Span recorder and reducer. Spans are kept in memory while the traced
 * window runs and written out as NDJSON when the run ends; the reducer
 * turns them into per-layer self time (a span's duration minus the part
 * its child spans cover) and checks that each job's layer self times
 * account for its traced wall time.
 */
#include <algorithm>
#include <fstream>
#include <map>

#include "bench.hpp"

namespace layerbench
{

int32_t
Tracer::open(const char* name, int64_t job)
{
    Span span;
    span.name = name;
    span.job = job;
    span.id = int32_t(spans_.size());
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_ns = nowNs();
    spans_.push_back(span);
    stack_.push_back(span.id);
    return span.id;
}

void
Tracer::close(int32_t id)
{
    spans_[size_t(id)].end_ns = nowNs();
    stack_.pop_back();
}

void
Tracer::closeThrough(int32_t id)
{
    while (!stack_.empty()) {
        const int32_t top = stack_.back();
        close(top);
        if (top == id) return;
    }
}

void
Tracer::record(const char* name, int64_t job, int32_t parent,
               int64_t start_ns, int64_t end_ns)
{
    Span span;
    span.name = name;
    span.job = job;
    span.id = int32_t(spans_.size());
    span.parent = parent;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    spans_.push_back(span);
}

bool
Tracer::writeNdjson(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) return false;
    for (const Span& s : spans_) {
        out << "{\"name\":\"" << s.name << "\",\"job\":" << s.job
            << ",\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
            << "}\n";
    }
    return bool(out);
}

LayerSplit
reduceSpans(const std::vector<Span>& spans, int64_t job_lo, int64_t job_hi)
{
    // Children of every span, and the spans of every job.
    std::map<int32_t, std::vector<const Span*>> children;
    std::map<int64_t, std::vector<const Span*>> by_job;
    for (const Span& s : spans) {
        if (s.job < job_lo || s.job >= job_hi) continue;
        by_job[s.job].push_back(&s);
        if (s.parent >= 0) children[s.parent].push_back(&s);
    }

    auto selfNs = [&](const Span& s) {
        std::vector<std::pair<int64_t, int64_t>> cover;
        for (const Span* c : children[s.id]) {
            const int64_t lo = std::max(c->start_ns, s.start_ns);
            const int64_t hi = std::min(c->end_ns, s.end_ns);
            if (hi > lo) cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        int64_t covered = 0, reach = s.start_ns;
        for (const auto& [lo, hi] : cover) {
            const int64_t from = std::max(lo, reach);
            if (hi > from) covered += hi - from;
            reach = std::max(reach, hi);
        }
        return double(s.end_ns - s.start_ns - covered);
    };

    LayerSplit split;
    for (const auto& [job, members] : by_job) {
        const Span* root = nullptr;
        std::map<std::string, double> layer_self;
        double layer_sum = 0.0;
        for (const Span* s : members) {
            if (s->parent < 0) {
                root = s;
                continue;
            }
            const double self = selfNs(*s);
            layer_sum += self;
            layer_self[s->name] += self;
        }
        if (root == nullptr) continue;
        const double wall = double(root->end_ns - root->start_ns);
        const double unattributed = wall > 0 ? selfNs(*root) / wall : 0.0;
        // Layer self times plus the root's own time are the wall time
        // unless spans overlap or leave their parent; and the layers must
        // cover all but kMaxUnattributed of it.
        if (std::abs(layer_sum + selfNs(*root) - wall) >
                1e-3 * wall + 1000.0 ||
            unattributed > kMaxUnattributed) {
            ++split.inconsistent;
        }
        split.wall_ns.push_back(wall);
        split.unattributed.push_back(unattributed);
        for (const auto& [name, self] : layer_self) {
            split.self_ns[name].push_back(self);
        }
    }
    return split;
}

} // namespace layerbench
