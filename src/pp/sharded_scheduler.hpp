// Sharded multi-threaded engine for the uniform scheduler.
//
// The population [0, n) is split into S contiguous shards.  Under the
// uniform scheduler, the ordered pair classes induced by the partition --
// "both agents in shard s" (weight m_s(m_s-1)) and "initiator in a,
// responder in b" (weight m_a * m_b) -- have fixed total weight n(n-1), so
// a round of T interactions can be drawn in two exchangeable stages:
//
//   1. plan   (coordinator) draw the per-class interaction counts from the
//             multinomial Multinomial(T, w_c / n(n-1)) via sequential
//             binomial conditioning (pp/random.hpp binomial_draw), then
//   2. run    (workers) execute each class's count with pairs drawn
//             uniformly *within* the class, shard-local and independent.
//
// Stage 2 parallelizes with zero locks on agent state: diagonal classes
// touch one shard each, and the cross classes of a round are scheduled as
// a round-robin tournament (circle method), so every execution slot is a
// set of shard-disjoint tasks.  Each task draws from its own counter-based
// RNG stream, derive_stream(seed, round, task) (pp/rng.hpp), which makes
// trajectories a pure function of (seed, shard count): bit-identical
// regardless of thread count or scheduling, and bit-identical between the
// sequential hooked run() and the threaded run_parallel().
//
// Equivalence: the *multiset* of a round's interactions is distributed
// exactly as T i.i.d. uniform scheduler draws (multinomial class counts +
// uniform within class); only the within-round interleaving differs from
// the i.i.d. order.  A round is capped at max(32, n/2) interactions --
// at most half a parallel time unit -- so observables at convergence-time
// scale are unaffected.  This is proven where it matters, by the KS
// distribution-equivalence wall (tests/engine_equivalence_test.cpp) at
// shards in {1, 2, 8}, not argued; shards=1 does not approximate at all,
// it *delegates* to the batched engine.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "obs/engine_counters.hpp"
#include "obs/timeline.hpp"
#include "pp/assert.hpp"
#include "pp/engine.hpp"
#include "pp/random.hpp"
#include "pp/rng.hpp"
#include "pp/scheduler.hpp"

namespace ssr {

struct sharded_options {
  /// Worker shard count; 0 picks the hardware concurrency.  Clamped to
  /// [1, n]; an effective count of 1 delegates to the batched engine.
  std::uint32_t shards = 0;
  /// Interactions per planned round; 0 picks max(32, n/2) -- at most half
  /// a parallel time unit, so round-granular reordering stays below the
  /// scale of any convergence-time observable.
  std::uint64_t round_interactions = 0;
};

namespace detail {

/// Contiguous shard partition plus the tournament slot structure: slot k of
/// cross_slots lists pairwise shard-disjoint unordered shard pairs, and
/// every unordered pair appears in exactly one slot (circle method).
struct shard_layout {
  std::uint32_t n = 0;
  std::uint32_t shards = 0;
  std::vector<std::uint32_t> offset;  // size shards + 1; shard s = [offset[s], offset[s+1])
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      cross_slots;

  static shard_layout build(std::uint32_t n, std::uint32_t shards);

  std::uint32_t size_of(std::uint32_t s) const {
    return offset[s + 1] - offset[s];
  }
};

/// One schedulable unit of a round: a diagonal class (a == b, count_ab
/// within-shard interactions) or both ordered directions of a cross shard
/// pair a < b.  `stream` is the task's flat index, the lo word of its
/// derive_stream coordinates.
struct shard_task {
  bool diagonal = false;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t count_ab = 0;
  std::uint64_t count_ba = 0;
  std::uint64_t stream = 0;
};

/// Draws one round's multinomial class counts (consuming `plan_rng`
/// deterministically) and regroups them into executable slots: slots[0]
/// holds the diagonal tasks (shard-disjoint by construction), each further
/// slot one tournament round of cross tasks.  Zero-count tasks are
/// dropped; stream indices are fixed by shard coordinates, so dropping
/// never perturbs another task's RNG stream.
void plan_shard_round(const shard_layout& layout, rng_t& plan_rng,
                      std::uint64_t total,
                      std::vector<std::uint64_t>& weight_scratch,
                      std::vector<std::uint64_t>& count_scratch,
                      std::vector<std::vector<shard_task>>& slots);

/// Minimal persistent worker pool for slot execution.  run_tasks(count, f)
/// runs f(0..count-1) across the pool *and* the calling thread, returning
/// only when every call finished; claims and completion are mutex-guarded
/// (tasks are coarse -- thousands of interactions -- so contention is
/// nil), which keeps the claim/task-pointer lifecycle trivially race-free.
class shard_executor {
 public:
  /// Spawns `workers` background threads (the calling thread is the +1).
  explicit shard_executor(std::uint32_t workers);
  ~shard_executor();

  shard_executor(const shard_executor&) = delete;
  shard_executor& operator=(const shard_executor&) = delete;

  void run_tasks(std::size_t count,
                 const std::function<void(std::size_t)>& task);

  std::uint32_t thread_count() const {
    return static_cast<std::uint32_t>(threads_.size()) + 1;
  }

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t task_count_ = 0;
  std::size_t next_claim_ = 0;
  std::size_t completed_ = 0;
  std::exception_ptr error_;
  bool stopping_ = false;
};

}  // namespace detail

/// The sharded engine.  Satisfies simulation_engine: run(budget, pre, post)
/// executes the *identical* deterministic schedule sequentially with
/// per-interaction hooks (what the convergence harness needs), and
/// run_parallel(budget) executes the same schedule across the worker pool
/// -- the two produce bit-identical trajectories and interaction counts
/// (tests/sharded_scheduler_fuzz_test.cpp), because every task's draws
/// come from its own (round, task)-keyed stream and tasks within a slot
/// touch disjoint shards.
///
/// An effective shard count of 1 (explicit, or n < 2 shards' worth of
/// hardware) constructs no machinery at all: the engine holds a delegate
/// batched_engine and forwards everything, so shards=1 *is* the batched
/// path bit for bit.
template <population_protocol P>
class sharded_engine {
 public:
  using protocol_type = P;
  using agent_state = typename P::agent_state;

  sharded_engine(P protocol, std::vector<agent_state> initial,
                 std::uint64_t seed, sharded_options options = {})
      : protocol_(std::move(protocol)), seed_(seed), options_(options) {
    SSR_REQUIRE(initial.size() == protocol_.population_size());
    SSR_REQUIRE(initial.size() >= 2);
    const auto n = static_cast<std::uint32_t>(initial.size());
    std::uint32_t shards = options_.shards;
    if (shards == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      shards = hw == 0 ? 4 : static_cast<std::uint32_t>(hw);
    }
    shards = std::min(std::max<std::uint32_t>(shards, 1), n);
    if (shards <= 1) {
      delegate_.emplace(protocol_, std::move(initial), seed);
      return;
    }
    agents_ = std::move(initial);
    layout_ = detail::shard_layout::build(n, shards);
    // Planning draws come from a stream disjoint from every task stream.
    plan_rng_ = rng_t(derive_seed(seed, 0x5ba9d5ULL));
    shared_ = std::make_unique<obs::shared_engine_counters>();
  }

  /// Sequential hooked execution (the simulation_engine contract).  pre /
  /// post see every interaction in the deterministic schedule order; a
  /// post that stops abandons the rest of the planned round, which is
  /// sound because a round's interactions are exchangeable.
  template <class Pre, class Post>
  bool run(std::uint64_t max_interactions, Pre&& pre, Post&& post) {
    if (delegate_) {
      return delegate_->run(max_interactions, std::forward<Pre>(pre),
                            std::forward<Post>(post));
    }
    if (profiler_ == nullptr) {
      return run_loop(max_interactions, std::forward<Pre>(pre),
                      std::forward<Post>(post));
    }
    obs::timeline_scope section(profiler_, "engine.run");
    const std::uint64_t before = interactions_;
    const bool stopped = run_loop(max_interactions, std::forward<Pre>(pre),
                                  std::forward<Post>(post));
    profiler_->add_units(interactions_ - before);
    return stopped;
  }

  /// Threaded execution of the same schedule, without hooks (hooks are a
  /// sequential observation contract).  Returns false (budget exhausted),
  /// mirroring run() with never-stopping hooks -- and produces the same
  /// trajectory bit for bit.
  bool run_parallel(std::uint64_t max_interactions) {
    if (delegate_) {
      return delegate_->run(max_interactions, ignore_pair, never_stop);
    }
    if (profiler_ == nullptr) return run_parallel_loop(max_interactions);
    obs::timeline_scope section(profiler_, "engine.run");
    const std::uint64_t before = interactions_;
    const bool stopped = run_parallel_loop(max_interactions);
    profiler_->add_units(interactions_ - before);
    return stopped;
  }

  /// Attaches (or with nullptr detaches) an event-counter sink.  Worker
  /// tasks accumulate into private counters merged through an atomic
  /// shared_engine_counters; the plain sink only ever sees coordinator
  /// writes, after workers joined.
  void attach_counters(obs::engine_counters* counters) {
    if (delegate_) {
      delegate_->attach_counters(counters);
      return;
    }
    counters_ = counters;
  }

  /// Attaches (or with nullptr detaches) a section profiler; coordinator
  /// only (the timeline collector is single-threaded), so sections carry
  /// whole rounds with their executed interactions as units.
  void attach_profiler(obs::timeline_profiler* profiler) {
    if (delegate_) {
      delegate_->attach_profiler(profiler);
      return;
    }
    profiler_ = profiler;
  }

  std::uint32_t population_size() const {
    return delegate_ ? delegate_->population_size() : layout_.n;
  }
  std::uint64_t interactions() const {
    return delegate_ ? delegate_->interactions() : interactions_;
  }
  double parallel_time() const {
    return delegate_ ? delegate_->parallel_time()
                     : static_cast<double>(interactions_) /
                           static_cast<double>(layout_.n);
  }
  bool quiescent() const {
    return delegate_ ? delegate_->quiescent() : false;
  }

  std::span<const agent_state> agents() const {
    return delegate_ ? delegate_->agents()
                     : std::span<const agent_state>(agents_);
  }
  const P& protocol() const {
    return delegate_ ? delegate_->protocol() : protocol_;
  }

  /// Effective shard count after clamping (1 means the batched delegate).
  std::uint32_t shards() const { return delegate_ ? 1 : layout_.shards; }
  /// Interactions per planned round (0 for the batched delegate).  A run()
  /// budget that ends mid-round plans a shorter round, so callers that
  /// split one run into bursts make the bursts whole rounds to keep the
  /// trajectory of the unsplit run.
  std::uint64_t round_interactions() const {
    return delegate_ ? 0 : round_length();
  }
  /// Worker threads run_parallel uses (coordinator included).
  std::uint32_t thread_count() {
    if (delegate_) return 1;
    ensure_executor();
    return executor_->thread_count();
  }

 private:
  std::uint64_t round_length() const {
    if (options_.round_interactions != 0) return options_.round_interactions;
    return std::max<std::uint64_t>(32, layout_.n / 2);
  }

  void plan_round(std::uint64_t budget_left) {
    const std::uint64_t length = std::min(round_length(), budget_left);
    detail::plan_shard_round(layout_, plan_rng_, length, weight_scratch_,
                             count_scratch_, slots_);
    current_round_ = round_index_++;
    ++pending_.shard_rounds;
  }

  template <class Pre, class Post>
  bool run_loop(std::uint64_t max_interactions, Pre&& pre, Post&& post) {
    bool stopped = false;
    while (!stopped && interactions_ < max_interactions) {
      plan_round(max_interactions - interactions_);
      for (const auto& slot : slots_) {
        for (const auto& task : slot) {
          rng_t rng(derive_stream(seed_, current_round_, task.stream));
          P proto = protocol_;
          obs::engine_counters local;
          stopped = run_task(task, rng, proto, local, &interactions_, pre,
                             post);
          pending_ += local;
          if (stopped) break;
        }
        if (stopped) break;
      }
    }
    publish_counters();
    return stopped;
  }

  bool run_parallel_loop(std::uint64_t max_interactions) {
    ensure_executor();
    while (interactions_ < max_interactions) {
      plan_round(max_interactions - interactions_);
      std::uint64_t planned = 0;
      for (const auto& slot : slots_) {
        for (const auto& task : slot) planned += task.count_ab + task.count_ba;
      }
      for (const auto& slot : slots_) {
        executor_->run_tasks(slot.size(), [&](std::size_t t) {
          const detail::shard_task& task = slot[t];
          rng_t rng(derive_stream(seed_, current_round_, task.stream));
          P proto = protocol_;
          obs::engine_counters local;
          std::uint64_t scratch = 0;
          run_task(
              task, rng, proto, local, &scratch, ignore_pair, never_stop);
          shared_->absorb(local);
        });
      }
      interactions_ += planned;
    }
    pending_ += shared_->snapshot_and_reset();
    publish_counters();
    return false;
  }

  /// The one execution path both run modes share: identical RNG
  /// consumption, identical interaction order within the task.
  template <class Pre, class Post>
  bool run_task(const detail::shard_task& task, rng_t& rng, P& proto,
                obs::engine_counters& counters, std::uint64_t* live,
                Pre&& pre, Post&& post) {
    if (task.diagonal) {
      return run_block(task.a, task.a, task.count_ab, rng, proto, counters,
                       live, pre, post);
    }
    // A fair coin picks which ordered direction runs first, so neither
    // class systematically precedes the other within a round.
    if (coin_flip(rng)) {
      if (run_block(task.a, task.b, task.count_ab, rng, proto, counters,
                    live, pre, post)) {
        return true;
      }
      return run_block(task.b, task.a, task.count_ba, rng, proto, counters,
                       live, pre, post);
    }
    if (run_block(task.b, task.a, task.count_ba, rng, proto, counters, live,
                  pre, post)) {
      return true;
    }
    return run_block(task.a, task.b, task.count_ab, rng, proto, counters,
                     live, pre, post);
  }

  template <class Pre, class Post>
  bool run_block(std::uint32_t sa, std::uint32_t sb, std::uint64_t count,
                 rng_t& rng, P& proto, obs::engine_counters& counters,
                 std::uint64_t* live, Pre&& pre, Post&& post) {
    const std::uint32_t lo_a = layout_.offset[sa];
    const std::uint32_t m_a = layout_.size_of(sa);
    const std::uint32_t lo_b = layout_.offset[sb];
    const std::uint32_t m_b = layout_.size_of(sb);
    const bool same = sa == sb;
    for (std::uint64_t c = 0; c < count; ++c) {
      agent_pair pair;
      if (same) {
        // Ordered distinct pair within the shard.
        const auto i = static_cast<std::uint32_t>(uniform_below(rng, m_a));
        auto j = static_cast<std::uint32_t>(uniform_below(rng, m_a - 1));
        if (j >= i) ++j;
        pair = {lo_a + i, lo_a + j};
      } else {
        pair = {lo_a + static_cast<std::uint32_t>(uniform_below(rng, m_a)),
                lo_b + static_cast<std::uint32_t>(uniform_below(rng, m_b))};
      }
      pre(pair);
      const bool changed = proto.interact(agents_[pair.initiator],
                                          agents_[pair.responder], rng);
      ++*live;
      ++counters.interactions_executed;
      counters.transitions_changed += changed ? 1 : 0;
      if (post(pair, changed)) return true;
    }
    return false;
  }

  void ensure_executor() {
    if (executor_) return;
    const unsigned hw = std::thread::hardware_concurrency();
    // At least two threads total even on one-core hosts, so the concurrent
    // code paths genuinely run concurrently under TSan everywhere.
    const std::uint32_t total = std::max<std::uint32_t>(
        2, std::min<std::uint32_t>(hw == 0 ? 2 : hw, layout_.shards));
    executor_ = std::make_unique<detail::shard_executor>(total - 1);
  }

  void publish_counters() {
    if (counters_ != nullptr) *counters_ += pending_;
    pending_.reset();
  }

  P protocol_;
  std::vector<agent_state> agents_;
  std::uint64_t seed_;
  sharded_options options_;
  std::optional<batched_engine<P>> delegate_;  // engaged iff shards == 1
  detail::shard_layout layout_;
  rng_t plan_rng_;
  std::uint64_t round_index_ = 0;
  std::uint64_t current_round_ = 0;
  std::uint64_t interactions_ = 0;
  std::vector<std::uint64_t> weight_scratch_;
  std::vector<std::uint64_t> count_scratch_;
  std::vector<std::vector<detail::shard_task>> slots_;
  std::unique_ptr<detail::shard_executor> executor_;
  std::unique_ptr<obs::shared_engine_counters> shared_;
  obs::engine_counters pending_;
  obs::engine_counters* counters_ = nullptr;
  obs::timeline_profiler* profiler_ = nullptr;
};

}  // namespace ssr
