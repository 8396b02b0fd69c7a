#include "protocols/history_tree.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <memory>
#include <new>
#include <sstream>

#include "pp/assert.hpp"

#if __has_include(<sys/single_threaded.h>)
#include <sys/single_threaded.h>
#endif

namespace ssr {

/// An immutable shared node (its name is the key beside the link into it),
/// allocated together with its children: `count` keys, then `count` links.
/// `level` bounds its depth; a snapshot chain node also links the same
/// snapshot one depth shallower (`shorter`), and for any depth >= level the
/// node is its own truncation.
struct history_tree::node {
  // Every count is held by a link or a node, each at least 24 bytes, so 32
  // bits cannot overflow below 96 GiB of them.
  std::atomic<std::uint32_t> refs{1};
  std::uint32_t level = 0;
  std::uint32_t count = 0;
  bool sorted = true;  // the links ascend by expiry
  node_ref shorter;

  std::uint64_t* keys() {
    return reinterpret_cast<std::uint64_t*>(reinterpret_cast<std::byte*>(this) +
                                            sizeof(node));
  }
  link* links() { return reinterpret_cast<link*>(keys() + count); }
  const std::uint64_t* keys() const { return const_cast<node*>(this)->keys(); }
  const link* links() const { return const_cast<node*>(this)->links(); }

  /// A node with `count` children whose keys and links the caller fills.
  static node* make(std::uint32_t level, std::size_t count,
                    node_ref shorter) {
    static_assert(sizeof(node) % alignof(link) == 0);
    SSR_REQUIRE(count <= UINT32_MAX);
    void* memory = ::operator new(
        sizeof(node) + count * (sizeof(std::uint64_t) + sizeof(link)));
    node* out = new (memory) node;
    out->level = level;
    out->count = static_cast<std::uint32_t>(count);
    out->shorter = std::move(shorter);
    std::uninitialized_value_construct_n(out->keys(), count);
    std::uninitialized_value_construct_n(out->links(), count);
    return out;
  }

  static void destroy(node* n) {
    std::destroy_n(n->links(), n->count);
    n->~node();
    ::operator delete(n);
  }

  /// The one node without children: every truncation to depth 0 is this
  /// node.  It is never freed and references to it are not counted, so
  /// threads that copy and drop trees do not contend for its count.
  static node empty;
};

constinit history_tree::node history_tree::node::empty;

namespace {

/// True while the process has never started a second thread.  Counts are
/// then updated without locked instructions, as libstdc++'s shared_ptr
/// does; starting a thread clears the flag for good before the thread runs.
bool single_threaded() {
#if __has_include(<sys/single_threaded.h>)
  return __libc_single_threaded != 0;
#else
  return false;
#endif
}

}  // namespace

history_tree::node_ref::node_ref(const node_ref& other) noexcept
    : p_(other.p_) {
  if (p_ == nullptr || p_ == &node::empty) return;
  if (single_threaded()) {
    p_->refs.store(p_->refs.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  } else {
    p_->refs.fetch_add(1, std::memory_order_relaxed);
  }
}

history_tree::node_ref::~node_ref() {
  if (p_ == nullptr || p_ == &node::empty) return;
  std::uint32_t before = 0;
  if (single_threaded()) {
    before = p_->refs.load(std::memory_order_relaxed);
    p_->refs.store(before - 1, std::memory_order_relaxed);
  } else {
    before = p_->refs.fetch_sub(1, std::memory_order_acq_rel);
  }
  if (before == 1) node::destroy(p_);
}

namespace {

std::uint32_t plain_depth(const tree_node& node) {
  std::uint32_t deepest = 0;
  for (const tree_edge& e : node.edges)
    deepest = std::max(deepest, 1 + plain_depth(e.child));
  return deepest;
}

void erase_named(tree_node& node, const name_t& name) {
  std::erase_if(node.edges,
                [&](const tree_edge& e) { return e.child.name == name; });
  for (tree_edge& e : node.edges) erase_named(e.child, name);
}

}  // namespace

name_t history_tree::name_of(std::uint64_t key) {
  const int length = static_cast<int>(std::bit_width(key)) - 1;
  name_t out;
  for (int b = length - 1; b >= 0; --b) out.append_bit(((key >> b) & 1) != 0);
  return out;
}

history_tree::children history_tree::children_of(const node& n) {
  return {n.keys(), n.links(), n.count, n.sorted};
}

history_tree::node_ref history_tree::leaf() { return node_ref(&node::empty); }

history_tree::history_tree(const name_t& own_name) { reset(own_name); }

void history_tree::reset(const name_t& own_name) {
  name_ = own_name;
  keys_.clear();
  links_.clear();
  sorted_ = true;
}

template <class Drop>
void history_tree::erase_root_links(Drop drop) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (drop(keys_[i], links_[i])) continue;
    if (kept != i) {
      keys_[kept] = keys_[i];
      links_[kept] = std::move(links_[i]);
    }
    ++kept;
  }
  keys_.resize(kept);
  links_.resize(kept);
}

bool history_tree::pruned(const link& l, std::int64_t clock) const {
  return retention_ && *retention_ >= 0 && clock > l.added &&
         clock >= l.expiry &&
         l.expired_base + (clock - l.expiry) > *retention_;
}

/// The names that scrubbed edges above a node hide below it, as a list
/// running up the walk's stack.
struct history_tree::hidden_names {
  std::uint64_t key;
  const hidden_names* up;
};

bool history_tree::scrubbed_away(const link& l, std::uint64_t key,
                                 std::uint64_t tail,
                                 const hidden_names* above) {
  if (l.scrubbed && key == tail) return true;
  for (; above != nullptr; above = above->up)
    if (above->key == key) return true;
  return false;
}

bool history_tree::hidden(const link& l, std::uint64_t key,
                          std::uint64_t tail, std::int64_t clock,
                          const hidden_names* above) const {
  return pruned(l, clock) || scrubbed_away(l, key, tail, above);
}

template <class Enter, class Leave>
bool history_tree::walk_links(children c, std::uint64_t tail,
                              std::int64_t clock, std::uint32_t depth,
                              const hidden_names* above, Enter& enter,
                              Leave& leave) const {
  for (std::size_t i = 0; i < c.count; ++i) {
    const link& l = c.links[i];
    const std::uint64_t key = c.keys[i];
    if (hidden(l, key, tail, clock, above)) continue;
    const step next = enter(key, l, clock, depth);
    if (next == step::stop) return true;
    if (next == step::skip) continue;
    const hidden_names below{tail, above};
    if (walk_links(children_of(*l.child), key, clock - l.shift, depth + 1,
                   l.scrubbed ? &below : above, enter, leave)) {
      return true;
    }
    leave();
  }
  return false;
}

/// Depth-first walk over the visible edges in insertion order.
/// `enter(key, link, tail clock, child depth)` decides whether to descend;
/// `leave()` follows a descent.  Returns true iff `enter` stopped the walk.
template <class Enter, class Leave>
bool history_tree::walk(Enter&& enter, Leave&& leave) const {
  return walk_links(root_children(), key_of(name_), clock_, 1, nullptr, enter,
                    leave);
}

tree_node history_tree::root() const {
  tree_node out{name_, {}};
  std::vector<tree_node*> trail{&out};
  walk(
      [&](std::uint64_t key, const link& l, std::int64_t clock,
          std::uint32_t) {
        const auto left = l.expiry - clock;
        const auto over = clock - l.expiry;
        tree_edge& e = trail.back()->edges.emplace_back();
        e.sync = l.sync;
        e.timer = left > 0 ? static_cast<std::uint32_t>(left) : 0;
        e.expired_for =
            l.expired_base + (over > 0 ? static_cast<std::uint32_t>(over) : 0);
        e.child.name = name_of(key);
        trail.push_back(&e.child);
        return step::descend;
      },
      [&] { trail.pop_back(); });
  return out;
}

void history_tree::assign(const tree_node& root) {
  // Every edge joins on this tree's clock, as if added just now.
  const auto plain_link = [this](const tree_edge& e, node_ref child) {
    link l;
    l.child = std::move(child);
    l.expiry = clock_ + e.timer;
    l.added = clock_;
    l.sync = e.sync;
    l.expired_base = e.expired_for;
    return l;
  };
  const auto by_expiry = [](const link& a, const link& b) {
    return a.expiry < b.expiry;
  };
  const auto convert = [&](const auto& self, const tree_node& from,
                           std::uint32_t level,
                           node_ref shorter) -> node_ref {
    if (level == 0) return leaf();
    const std::size_t count = from.edges.size();
    node* out = node::make(level, count, std::move(shorter));
    node_ref owner(out);
    for (std::size_t i = 0; i < count; ++i) {
      const tree_edge& e = from.edges[i];
      out->keys()[i] = key_of(e.child.name);
      out->links()[i] = plain_link(e, self(self, e.child, level - 1, {}));
    }
    out->sorted = std::is_sorted(out->links(), out->links() + count, by_expiry);
    return owner;
  };
  name_ = root.name;
  keys_.clear();
  links_.clear();
  for (const tree_edge& e : root.edges) {
    // Each root child becomes a snapshot chain so it can be re-shared at
    // any depth.
    const std::uint32_t depth = plain_depth(e.child);
    node_ref chain;
    for (std::uint32_t level = 0; level <= depth; ++level)
      chain = convert(convert, e.child, level, std::move(chain));
    keys_.push_back(key_of(e.child.name));
    links_.push_back(plain_link(e, std::move(chain)));
  }
  sorted_ = std::is_sorted(links_.begin(), links_.end(), by_expiry);
}

history_tree history_tree::adopt(const tree_node& root) {
  history_tree tree;
  tree.assign(root);
  return tree;
}

/// What the detection scan carries down: both roots, the partner's tree,
/// and the path so far (on the stack unless a path is unusually long).
struct history_tree::detection {
  detection(std::uint64_t own, std::uint64_t partner_root,
            const history_tree& partner_tree)
      : own_key(own), partner_key(partner_root), partner(partner_tree) {}

  std::uint64_t own_key;
  std::uint64_t partner_key;
  const history_tree& partner;
  std::array<path_step, 16> inline_steps;  // written before read
  std::vector<path_step> spilled;
  std::span<path_step> steps{inline_steps};

  void grow() {
    std::vector<path_step> bigger(2 * steps.size());
    std::copy(steps.begin(), steps.end(), bigger.begin());
    spilled.swap(bigger);
    steps = spilled;
  }
};

bool history_tree::detects_collision_against(const name_t& partner_name,
                                             const history_tree& partner) const {
  detection d(key_of(name_), key_of(partner_name), partner);
  return fresh_collision(root_children(), d.own_key, clock_, 0, nullptr, d);
}

bool history_tree::fresh_collision(children c, std::uint64_t tail,
                                   std::int64_t clock, std::size_t depth,
                                   const hidden_names* above,
                                   detection& d) const {
  // DFS over fresh paths only; `d.steps[0..depth]` holds the (key, sync)
  // trail from the root.  At every node labelled with the partner's name,
  // run Protocol 8 against the partner's tree; an inconsistent history is a
  // collision.  Links are read newest first: in a node that ascends by
  // expiry the first expired link ends the scan, since every older one has
  // expired too.  A fresh link is never pruned, so only scrubs can hide it.
  if (depth == d.steps.size()) d.grow();
  // Request every fresh inner child node before descending into the first.
  for (std::size_t i = c.count; i-- > 0;) {
    const link& l = c.links[i];
    if (l.expiry <= clock) {
      if (c.sorted) break;
      continue;
    }
    if (l.child.get() != &node::empty) __builtin_prefetch(l.child.get());
  }
  for (std::size_t i = c.count; i-- > 0;) {
    const link& l = c.links[i];
    if (l.expiry <= clock) {
      if (c.sorted) return false;
      continue;
    }
    const std::uint64_t key = c.keys[i];
    if (scrubbed_away(l, key, tail, above)) continue;
    d.steps[depth] = {key, l.sync};
    if (key == d.partner_key &&
        !d.partner.consistent_with_path(d.own_key, d.steps.first(depth + 1))) {
      return true;
    }
    if (l.child.get() == &node::empty) continue;  // nothing below to read
    const hidden_names below{tail, above};
    if (fresh_collision(children_of(*l.child), key, clock - l.shift,
                        depth + 1, l.scrubbed ? &below : above, d)) {
      return true;
    }
  }
  return false;
}

bool history_tree::consistent_with_path(std::uint64_t asker_key,
                                        std::span<const path_step> path) const {
  SSR_REQUIRE(!path.empty());
  return consistent_below(root_children(), key_of(name_), clock_, nullptr,
                          asker_key, path, 1);
}

bool history_tree::consistent_below(children c, std::uint64_t tail,
                                    std::int64_t clock,
                                    const hidden_names* above,
                                    std::uint64_t asker_key,
                                    std::span<const path_step> path,
                                    std::size_t k) const {
  // Walk this tree from the root along the reversed path: the k-th step
  // (k = 1..p) follows the child labelled v_{p-k} (v_0 being the asker's
  // root) and compares syncs with the asker's edge e_{p+1-k}.  Any match
  // certifies a shared interaction history (Figure 2); if the walk ends --
  // possibly immediately -- without a match, the path is inconsistent.
  const std::size_t p = path.size();
  const std::uint64_t wanted = k < p ? path[p - 1 - k].key : asker_key;
  for (std::size_t i = 0; i < c.count; ++i) {
    if (c.keys[i] != wanted) continue;
    const link& l = c.links[i];
    if (hidden(l, wanted, tail, clock, above)) continue;
    if (l.sync == path[p - k].sync) return true;
    if (k == p) return false;
    const hidden_names below{tail, above};
    return consistent_below(children_of(*l.child), wanted, clock - l.shift,
                            l.scrubbed ? &below : above, asker_key, path,
                            k + 1);
  }
  return false;  // the reversed suffix ends: no match found
}

history_tree::node_ref history_tree::share(std::uint32_t depth_limit) const {
  // Depth 0 is the bare name; depth d links every child's snapshot at depth
  // d-1.  Stop early once a depth holds everything (all children whole).
  node_ref chain = leaf();
  for (std::uint32_t level = 1; level <= depth_limit && !links_.empty();
       ++level) {
    node* next = node::make(level, links_.size(), std::move(chain));
    chain = node_ref(next);
    next->sorted = sorted_;
    std::copy(keys_.begin(), keys_.end(), next->keys());
    bool whole = true;
    for (std::size_t i = 0; i < links_.size(); ++i) {
      link& l = next->links()[i];
      l = links_[i];
      whole = whole && l.child->level < level;
      while (l.child->level > level - 1) l.child = l.child->shorter;
    }
    if (whole) break;
  }
  return chain;
}

void history_tree::attach(node_ref snapshot, const name_t& partner_name,
                          std::int64_t partner_clock,
                          const std::optional<std::int64_t>& partner_retention,
                          std::uint32_t sync, std::uint32_t timer) {
  SSR_REQUIRE(!retention_ || !partner_retention ||
              *retention_ == *partner_retention);
  if (!retention_) retention_ = partner_retention;
  // Replace any existing record of the partner (line 8) ...
  const std::uint64_t partner_key = key_of(partner_name);
  erase_root_links(
      [&](std::uint64_t key, const link&) { return key == partner_key; });
  // ... and graft its current tree under a fresh edge (lines 9-10).
  link l;
  l.child = std::move(snapshot);
  l.expiry = clock_ + timer;
  l.added = clock_;
  l.shift = clock_ - partner_clock;
  l.sync = sync;
  // The protocol's constant timer keeps the order; erasing never breaks it.
  sorted_ = sorted_ && (links_.empty() || links_.back().expiry <= l.expiry);
  keys_.push_back(partner_key);
  links_.push_back(std::move(l));
}

void history_tree::graft_partner(const history_tree& partner,
                                 std::uint32_t depth_limit, std::uint32_t sync,
                                 std::uint32_t timer) {
  attach(partner.share(depth_limit), partner.name_, partner.clock_,
         partner.retention_, sync, timer);
}

void history_tree::graft_each_other(history_tree& a, history_tree& b,
                                    std::uint32_t depth_limit,
                                    std::uint32_t sync, std::uint32_t timer) {
  // a's graft leaves its name and clock alone but may set its retention.
  node_ref a_snapshot = a.share(depth_limit);
  const std::optional<std::int64_t> a_retention = a.retention_;
  a.graft_partner(b, depth_limit, sync, timer);
  b.attach(std::move(a_snapshot), a.name_, a.clock_, a_retention, sync,
           timer);
}

void history_tree::remove_named_subtrees(const name_t& name) {
  if (!(name == name_)) {
    // Not the protocol's own-name scrub: rebuild the visible tree without
    // the name.
    tree_node plain = root();
    erase_named(plain, name);
    assign(plain);
    return;
  }
  const std::uint64_t own = key_of(name);
  erase_root_links([&](std::uint64_t key, const link&) { return key == own; });
  for (link& l : links_) l.scrubbed = true;
}

void history_tree::age_edges(std::int64_t prune_retention) {
  SSR_REQUIRE(!retention_ || *retention_ == prune_retention);
  retention_ = prune_retention;
  ++clock_;
  erase_root_links(
      [&](std::uint64_t, const link& l) { return pruned(l, clock_); });
}

std::size_t history_tree::node_count() const {
  std::size_t total = 1;
  walk(
      [&](std::uint64_t, const link&, std::int64_t, std::uint32_t) {
        ++total;
        return step::descend;
      },
      [] {});
  return total;
}

std::uint32_t history_tree::depth() const {
  std::uint32_t deepest = 0;
  walk(
      [&](std::uint64_t, const link&, std::int64_t, std::uint32_t depth) {
        deepest = std::max(deepest, depth);
        return step::descend;
      },
      [] {});
  return deepest;
}

bool history_tree::simply_labelled() const {
  std::vector<std::uint64_t> trail{key_of(name_)};
  return !walk(
      [&](std::uint64_t key, const link&, std::int64_t, std::uint32_t) {
        if (std::find(trail.begin(), trail.end(), key) != trail.end()) {
          return step::stop;
        }
        trail.push_back(key);
        return step::descend;
      },
      [&] { trail.pop_back(); });
}

std::string history_tree::to_string() const {
  std::ostringstream os;
  os << name_.to_string() << '\n';
  walk(
      [&](std::uint64_t key, const link& l, std::int64_t clock,
          std::uint32_t depth) {
        const auto left = l.expiry - clock;
        os << std::string(2 * depth, ' ') << "--" << l.sync << "(t"
           << (left > 0 ? left : 0) << ")--> " << name_of(key).to_string()
           << '\n';
        return step::descend;
      },
      [] {});
  return os.str();
}

}  // namespace ssr
