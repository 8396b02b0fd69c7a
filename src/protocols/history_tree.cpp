#include "protocols/history_tree.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "pp/assert.hpp"

namespace ssr {

/// An immutable shared node (its name is on the links into it).  `level`
/// bounds its depth; a snapshot chain node also links the same snapshot one
/// depth shallower (`shorter`), and for any depth >= level the node is its
/// own truncation.
struct history_tree::node {
  std::uint32_t level = 0;
  node_ptr shorter;
  std::vector<link> links;
};

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

history_tree::history_tree(const name_t& own_name) { reset(own_name); }

void history_tree::reset(const name_t& own_name) {
  name_ = own_name;
  links_.clear();
}

bool history_tree::pruned(const link& l, std::int64_t clock) const {
  return retention_ && *retention_ >= 0 && clock > l.added &&
         clock >= l.expiry &&
         l.expired_base + (clock - l.expiry) > *retention_;
}

/// The names that scrubbed edges above a node hide below it, as a list
/// running up the walk's stack.
struct history_tree::hidden_names {
  const name_t& name;
  const hidden_names* up;
};

bool history_tree::hidden(const link& l, const name_t& tail,
                          std::int64_t clock,
                          const hidden_names* above) const {
  if (pruned(l, clock) || (l.scrubbed && l.name == tail)) return true;
  for (; above != nullptr; above = above->up)
    if (above->name == l.name) return true;
  return false;
}

template <class Enter, class Leave>
bool history_tree::walk_links(const std::vector<link>& links,
                              const name_t& tail, std::int64_t clock,
                              std::uint32_t depth, const hidden_names* above,
                              Enter& enter, Leave& leave) const {
  for (const link& l : links) {
    if (hidden(l, tail, clock, above)) continue;
    const step next = enter(l, clock, depth);
    if (next == step::stop) return true;
    if (next == step::skip) continue;
    const hidden_names below{tail, above};
    if (walk_links(l.child->links, l.name, clock - l.shift, depth + 1,
                   l.scrubbed ? &below : above, enter, leave)) {
      return true;
    }
    leave();
  }
  return false;
}

/// Depth-first walk over the visible edges.  `enter(link, tail clock,
/// child depth)` decides whether to descend; `leave()` follows a descent.
/// Returns true iff `enter` stopped the walk.
template <class Enter, class Leave>
bool history_tree::walk(Enter&& enter, Leave&& leave) const {
  return walk_links(links_, name_, clock_, 1, nullptr, enter, leave);
}

tree_node history_tree::root() const {
  tree_node out{name_, {}};
  std::vector<tree_node*> trail{&out};
  walk(
      [&](const link& l, std::int64_t clock, std::uint32_t) {
        const auto left = l.expiry - clock;
        const auto over = clock - l.expiry;
        tree_edge& e = trail.back()->edges.emplace_back();
        e.sync = l.sync;
        e.timer = left > 0 ? static_cast<std::uint32_t>(left) : 0;
        e.expired_for =
            l.expired_base + (over > 0 ? static_cast<std::uint32_t>(over) : 0);
        e.child.name = l.name;
        trail.push_back(&e.child);
        return step::descend;
      },
      [&] { trail.pop_back(); });
  return out;
}

void history_tree::assign(const tree_node& root) {
  // Every edge joins on this tree's clock, as if added just now.
  const auto plain_link = [this](const tree_edge& e, node_ptr child) {
    link l;
    l.name = e.child.name;
    l.child = std::move(child);
    l.expiry = clock_ + e.timer;
    l.added = clock_;
    l.sync = e.sync;
    l.expired_base = e.expired_for;
    return l;
  };
  const auto convert = [&](const auto& self, const tree_node& from,
                           std::uint32_t level) -> std::shared_ptr<node> {
    auto out = std::make_shared<node>();
    out->level = level;
    if (level == 0) return out;
    for (const tree_edge& e : from.edges)
      out->links.push_back(plain_link(e, self(self, e.child, level - 1)));
    return out;
  };
  name_ = root.name;
  links_.clear();
  for (const tree_edge& e : root.edges) {
    // Each root child becomes a snapshot chain so it can be re-shared at
    // any depth.
    const std::uint32_t depth = plain_depth(e.child);
    node_ptr chain;
    for (std::uint32_t level = 0; level <= depth; ++level) {
      auto next = convert(convert, e.child, level);
      next->shorter = std::move(chain);
      chain = std::move(next);
    }
    links_.push_back(plain_link(e, std::move(chain)));
  }
}

history_tree history_tree::adopt(const tree_node& root) {
  history_tree tree;
  tree.assign(root);
  return tree;
}

bool history_tree::detects_collision_against(const name_t& partner_name,
                                             const history_tree& partner) const {
  // DFS over fresh paths; `steps` holds the (name, sync) trail from the
  // root.  At every node labelled with the partner's name, run Protocol 8
  // against the partner's tree; an inconsistent history is a collision.
  std::vector<path_step> steps;
  return walk(
      [&](const link& l, std::int64_t clock, std::uint32_t) {
        if (l.expiry <= clock) return step::skip;  // only fresh histories
        steps.push_back({l.name, l.sync});
        if (l.name == partner_name &&
            !partner.consistent_with_path(name_, steps)) {
          return step::stop;
        }
        return step::descend;
      },
      [&] { steps.pop_back(); });
}

bool history_tree::consistent_with_path(const name_t& asker_root,
                                        std::span<const path_step> path) const {
  SSR_REQUIRE(!path.empty());
  return consistent_below(links_, name_, clock_, nullptr, asker_root, path, 1);
}

bool history_tree::consistent_below(const std::vector<link>& links,
                                    const name_t& tail, std::int64_t clock,
                                    const hidden_names* above,
                                    const name_t& asker_root,
                                    std::span<const path_step> path,
                                    std::size_t k) const {
  // Walk this tree from the root along the reversed path: the k-th step
  // (k = 1..p) follows the child labelled v_{p-k} (v_0 being the asker's
  // root) and compares syncs with the asker's edge e_{p+1-k}.  Any match
  // certifies a shared interaction history (Figure 2); if the walk ends --
  // possibly immediately -- without a match, the path is inconsistent.
  const std::size_t p = path.size();
  const name_t& wanted = k < p ? path[p - 1 - k].name : asker_root;
  for (const link& l : links) {
    if (!(l.name == wanted) || hidden(l, tail, clock, above)) continue;
    if (l.sync == path[p - k].sync) return true;
    if (k == p) return false;
    const hidden_names below{tail, above};
    return consistent_below(l.child->links, l.name, clock - l.shift,
                            l.scrubbed ? &below : above, asker_root, path,
                            k + 1);
  }
  return false;  // the reversed suffix ends: no match found
}

history_tree::node_ptr history_tree::share(std::uint32_t depth_limit) const {
  // Depth 0 is the bare name; depth d links every child's snapshot at depth
  // d-1.  Stop early once a depth holds everything (all children whole).
  auto chain = std::make_shared<node>();
  for (std::uint32_t level = 1; level <= depth_limit && !links_.empty();
       ++level) {
    auto next = std::make_shared<node>();
    next->level = level;
    next->links = links_;
    bool whole = true;
    for (link& l : next->links) {
      whole = whole && l.child->level < level;
      while (l.child->level > level - 1) l.child = l.child->shorter;
    }
    next->shorter = std::move(chain);
    chain = std::move(next);
    if (whole) break;
  }
  return chain;
}

void history_tree::attach(node_ptr snapshot, const name_t& partner_name,
                          std::int64_t partner_clock,
                          const std::optional<std::int64_t>& partner_retention,
                          std::uint32_t sync, std::uint32_t timer) {
  SSR_REQUIRE(!retention_ || !partner_retention ||
              *retention_ == *partner_retention);
  if (!retention_) retention_ = partner_retention;
  // Replace any existing record of the partner (line 8) ...
  std::erase_if(links_,
                [&](const link& l) { return l.name == partner_name; });
  // ... and graft its current tree under a fresh edge (lines 9-10).
  link l;
  l.name = partner_name;
  l.child = std::move(snapshot);
  l.expiry = clock_ + timer;
  l.added = clock_;
  l.shift = clock_ - partner_clock;
  l.sync = sync;
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
  node_ptr a_snapshot = a.share(depth_limit);
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
  std::erase_if(links_, [&](const link& l) { return l.name == name; });
  for (link& l : links_) l.scrubbed = true;
}

void history_tree::age_edges(std::int64_t prune_retention) {
  SSR_REQUIRE(!retention_ || *retention_ == prune_retention);
  retention_ = prune_retention;
  ++clock_;
  std::erase_if(links_, [&](const link& l) { return pruned(l, clock_); });
}

std::size_t history_tree::node_count() const {
  std::size_t total = 1;
  walk(
      [&](const link&, std::int64_t, std::uint32_t) {
        ++total;
        return step::descend;
      },
      [] {});
  return total;
}

std::uint32_t history_tree::depth() const {
  std::uint32_t deepest = 0;
  walk(
      [&](const link&, std::int64_t, std::uint32_t depth) {
        deepest = std::max(deepest, depth);
        return step::descend;
      },
      [] {});
  return deepest;
}

bool history_tree::simply_labelled() const {
  std::vector<name_t> trail{name_};
  return !walk(
      [&](const link& l, std::int64_t, std::uint32_t) {
        if (std::find(trail.begin(), trail.end(), l.name) != trail.end()) {
          return step::stop;
        }
        trail.push_back(l.name);
        return step::descend;
      },
      [&] { trail.pop_back(); });
}

std::string history_tree::to_string() const {
  std::ostringstream os;
  os << name_.to_string() << '\n';
  walk(
      [&](const link& l, std::int64_t clock, std::uint32_t depth) {
        const auto left = l.expiry - clock;
        os << std::string(2 * depth, ' ') << "--" << l.sync << "(t"
           << (left > 0 ? left : 0) << ")--> " << l.name.to_string()
           << '\n';
        return step::descend;
      },
      [] {});
  return os.str();
}

}  // namespace ssr
