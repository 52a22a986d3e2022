#pragma once
/// \file parallel.hpp
/// \brief Shared deterministic threading substrate: a lazily-initialised
///        global thread pool plus `parallel_for` / `parallel_reduce`
///        building blocks used by the dense kernels, the SpMM aggregate,
///        the k-means grouping and the distributed training loop.
///
/// Determinism contract
/// --------------------
/// The work decomposition is a pure function of (range, grain) — never of
/// the pool width or of scheduling order. `parallel_for` may only be used
/// for bodies whose writes are disjoint across iterations, so any
/// chunk-to-thread mapping yields bitwise-identical results.
/// `parallel_reduce` materialises one partial per chunk and combines the
/// partials in ascending chunk order on the calling thread, so its result
/// is also bitwise deterministic and independent of the thread count.
/// When the range fits in a single chunk, or the pool width is 1, or the
/// call is made from inside another parallel region, the body runs inline
/// on the calling thread — byte-identical to the historical serial code.
///
/// The pool width defaults to the `SCGNN_THREADS` environment variable
/// when set (clamped to [1, 1024]), otherwise to
/// `std::thread::hardware_concurrency()`. Worker threads are started
/// lazily on the first parallel call and reused for the process lifetime.

#include <cstddef>
#include <utility>
#include <vector>

namespace scgnn {

/// Pool width the process would use with no explicit override: the
/// `SCGNN_THREADS` environment variable if set, else the hardware
/// concurrency (min 1).
[[nodiscard]] unsigned default_num_threads();

/// Current pool width (total workers, including the calling thread).
/// Resolves lazily from default_num_threads() on first use.
[[nodiscard]] unsigned num_threads();

/// Resize the pool. `n == 0` restores default_num_threads(). Existing
/// workers are retired and respawned lazily; must not be called from
/// inside a parallel region.
void set_num_threads(unsigned n);

/// True while the calling thread is executing inside a parallel region
/// (pool worker, or the caller participating in its own region). Parallel
/// calls made in this state run inline — nesting is safe but not widened.
[[nodiscard]] bool in_parallel_region() noexcept;

/// Chunk size (in items) so each chunk covers at least `min_work` scalar
/// operations given `work_per_item` of them per item. Keeps dispatch
/// overhead negligible for skinny items while staying a pure function of
/// the problem shape (never of the thread count).
[[nodiscard]] constexpr std::size_t grain_for(
    std::size_t work_per_item, std::size_t min_work = 32768) noexcept {
    if (work_per_item == 0) return min_work;
    const std::size_t g = min_work / work_per_item;
    return g == 0 ? 1 : g;
}

namespace detail {

/// Run `chunk_fn(ctx, i)` for every chunk index i in [0, num_chunks) on
/// the global pool. The calling thread participates; chunk indices are
/// handed out dynamically but each index runs exactly once. The first
/// exception thrown by any chunk is rethrown on the calling thread after
/// all chunks finish.
void pool_run(std::size_t num_chunks, void (*chunk_fn)(void*, std::size_t),
              void* ctx);

} // namespace detail

/// Observer hooks bracketing every top-level pool region, called on the
/// calling thread (begin receives the chunk count; end also runs when the
/// region rethrows). Installed by `scgnn::obs` to count tasks and record
/// a trace span per `parallel_for`/`parallel_reduce` region without the
/// threading substrate depending on the observability library. Both null
/// by default — the uninstrumented cost is two relaxed loads per region.
void set_pool_observer(void (*region_begin)(std::size_t num_chunks) noexcept,
                       void (*region_end)() noexcept) noexcept;

/// Invoke `body(lo, hi)` over [begin, end) split into fixed chunks of
/// `grain` items. Writes performed by `body` must be disjoint across
/// iterations; under that contract the result is bitwise identical for
/// every pool width, including the serial fallback.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Body&& body) {
    if (end <= begin) return;
    const std::size_t n = end - begin;
    const std::size_t g = grain == 0 ? 1 : grain;
    if (n <= g || in_parallel_region() || num_threads() == 1) {
        body(begin, end);
        return;
    }
    struct Ctx {
        std::size_t begin, end, grain;
        Body* body;
    } ctx{begin, end, g, &body};
    const std::size_t chunks = (n + g - 1) / g;
    detail::pool_run(
        chunks,
        [](void* p, std::size_t i) {
            auto* c = static_cast<Ctx*>(p);
            const std::size_t lo = c->begin + i * c->grain;
            const std::size_t hi =
                lo + c->grain < c->end ? lo + c->grain : c->end;
            (*c->body)(lo, hi);
        },
        &ctx);
}

/// Chunk-ordered deterministic reduction: `map(lo, hi)` produces one
/// partial per fixed chunk of `grain` items; the partials are folded into
/// `identity` with `combine` in ascending chunk order on the calling
/// thread. The decomposition depends only on (range, grain), so the
/// result is bitwise identical at every pool width. With a single chunk
/// (n <= grain) this degenerates to one `map` over the whole range — the
/// historical serial evaluation.
template <typename T, typename Map, typename Combine>
[[nodiscard]] T parallel_reduce(std::size_t begin, std::size_t end,
                                std::size_t grain, T identity, Map&& map,
                                Combine&& combine) {
    if (end <= begin) return identity;
    const std::size_t n = end - begin;
    const std::size_t g = grain == 0 ? 1 : grain;
    if (n <= g) return combine(std::move(identity), map(begin, end));
    const std::size_t chunks = (n + g - 1) / g;
    // Partials are boxed one-per-struct: a bare std::vector<bool> is
    // bit-packed, so concurrent writes to distinct indices would race on
    // shared words. Boxing guarantees each slot is its own memory location
    // for every T.
    struct Slot {
        T v;
    };
    std::vector<Slot> partials(chunks, Slot{identity});
    if (in_parallel_region() || num_threads() == 1) {
        for (std::size_t i = 0; i < chunks; ++i) {
            const std::size_t lo = begin + i * g;
            const std::size_t hi = lo + g < end ? lo + g : end;
            partials[i].v = map(lo, hi);
        }
    } else {
        struct Ctx {
            std::size_t begin, end, grain;
            Map* map;
            std::vector<Slot>* partials;
        } ctx{begin, end, g, &map, &partials};
        detail::pool_run(
            chunks,
            [](void* p, std::size_t i) {
                auto* c = static_cast<Ctx*>(p);
                const std::size_t lo = c->begin + i * c->grain;
                const std::size_t hi =
                    lo + c->grain < c->end ? lo + c->grain : c->end;
                (*c->partials)[i].v = (*c->map)(lo, hi);
            },
            &ctx);
    }
    T acc = std::move(identity);
    for (std::size_t i = 0; i < chunks; ++i)
        acc = combine(std::move(acc), std::move(partials[i].v));
    return acc;
}

/// RAII pool-width override: sets `set_num_threads(n)` on construction and
/// restores the previous width on destruction. Used by benches and tests
/// sweeping thread counts.
class ThreadCountGuard {
public:
    explicit ThreadCountGuard(unsigned n) : prev_(num_threads()) {
        set_num_threads(n);
    }
    ~ThreadCountGuard() { set_num_threads(prev_); }
    ThreadCountGuard(const ThreadCountGuard&) = delete;
    ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

private:
    unsigned prev_;
};

} // namespace scgnn
