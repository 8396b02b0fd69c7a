#include "protocols/history_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "pp/random.hpp"

namespace ssr {
namespace {

name_t nm(const std::string& bits) {
  name_t n;
  for (const char c : bits) n.append_bit(c == '1');
  return n;
}

// Re-enacts Figure 2 (left): interactions a-b (sync 1), b-c (sync 2),
// c-d (sync 3), from singleton trees, using the same tree operations the
// protocol performs.
struct figure2_agents {
  static constexpr std::uint32_t H = 3;
  static constexpr std::uint32_t T = 100;

  history_tree a{nm("00")}, b{nm("01")}, c{nm("10")}, d{nm("11")};

  void meet(history_tree& x, history_tree& y, std::uint32_t sync) {
    const history_tree x_before = x;
    x.graft_partner(y, H - 1, sync, T);
    y.graft_partner(x_before, H - 1, sync, T);
    x.remove_named_subtrees(x.root_name());
    y.remove_named_subtrees(y.root_name());
    // No timer aging here: Figure 2 abstracts from timers.
  }
};

TEST(HistoryTree, SingletonAfterReset) {
  history_tree t(nm("0"));
  EXPECT_EQ(t.node_count(), 1u);
  EXPECT_EQ(t.depth(), 0u);
  EXPECT_EQ(t.root_name(), nm("0"));
  EXPECT_TRUE(t.simply_labelled());
}

TEST(HistoryTree, GraftRecordsInteraction) {
  figure2_agents f;
  f.meet(f.a, f.b, 1);
  // a's tree: a -1-> b; b's tree: b -1-> a.
  EXPECT_EQ(f.a.node_count(), 2u);
  EXPECT_EQ(f.a.depth(), 1u);
  EXPECT_EQ(f.a.root().edges.size(), 1u);
  EXPECT_EQ(f.a.root().edges[0].sync, 1u);
  EXPECT_EQ(f.a.root().edges[0].child.name, nm("01"));
  EXPECT_EQ(f.b.root().edges[0].child.name, nm("00"));
}

TEST(HistoryTree, Figure2LeftBuildsChains) {
  figure2_agents f;
  f.meet(f.a, f.b, 1);
  f.meet(f.b, f.c, 2);
  f.meet(f.c, f.d, 3);
  // d's tree: d -3-> c -2-> b -1-> a (Figure 2, bottom-right of left panel).
  EXPECT_EQ(f.d.depth(), 3u);
  const tree_node& root = f.d.root();
  ASSERT_EQ(root.edges.size(), 1u);
  EXPECT_EQ(root.edges[0].sync, 3u);
  EXPECT_EQ(root.edges[0].child.name, nm("10"));  // c
  const tree_node& c_node = root.edges[0].child;
  ASSERT_EQ(c_node.edges.size(), 1u);
  EXPECT_EQ(c_node.edges[0].sync, 2u);
  EXPECT_EQ(c_node.edges[0].child.name, nm("01"));  // b
  const tree_node& b_node = c_node.edges[0].child;
  ASSERT_EQ(b_node.edges.size(), 1u);
  EXPECT_EQ(b_node.edges[0].sync, 1u);
  EXPECT_EQ(b_node.edges[0].child.name, nm("00"));  // a
  EXPECT_TRUE(f.d.simply_labelled());
}

// Figure 2 caption, left: when a and d would interact, d checks its path
// d -> c -> b -> a against a's tree (a -1-> b); the first edge of a's
// reversed suffix matches sync 1 -> consistent.
TEST(HistoryTree, Figure2LeftConsistencyCheck) {
  figure2_agents f;
  f.meet(f.a, f.b, 1);
  f.meet(f.b, f.c, 2);
  f.meet(f.c, f.d, 3);
  EXPECT_FALSE(f.d.detects_collision_against(nm("00"), f.a));
  EXPECT_FALSE(f.a.detects_collision_against(nm("11"), f.d));
}

// Figure 2, right: a-b re-interact (sync 7) before c-d meet; a's reversed
// suffix is a -7-> b -2-> c whose *first* edge mismatches d's record (1),
// but the second (2) matches -> still consistent.
TEST(HistoryTree, Figure2RightReinteractionStaysConsistent) {
  figure2_agents f;
  f.meet(f.a, f.b, 1);
  f.meet(f.b, f.c, 2);
  f.meet(f.a, f.b, 7);
  f.meet(f.c, f.d, 3);
  // a's tree is now a -7-> b -2-> c.
  ASSERT_EQ(f.a.root().edges.size(), 1u);
  EXPECT_EQ(f.a.root().edges[0].sync, 7u);
  EXPECT_FALSE(f.d.detects_collision_against(nm("00"), f.a));
}

// An impostor with a's name but no matching history is caught.
TEST(HistoryTree, ImpostorWithoutHistoryIsDetected) {
  figure2_agents f;
  f.meet(f.a, f.b, 1);
  f.meet(f.b, f.c, 2);
  f.meet(f.c, f.d, 3);
  history_tree impostor(nm("00"));  // claims to be a, singleton tree
  EXPECT_TRUE(f.d.detects_collision_against(nm("00"), impostor));
}

// An impostor whose sync values disagree on every edge of the reversed
// suffix is caught.
TEST(HistoryTree, ImpostorWithWrongSyncsIsDetected) {
  figure2_agents f;
  f.meet(f.a, f.b, 1);
  f.meet(f.b, f.c, 2);
  f.meet(f.c, f.d, 3);
  figure2_agents g;  // an unrelated world with different syncs
  g.meet(g.a, g.b, 40);
  g.meet(g.b, g.c, 50);
  EXPECT_TRUE(f.d.detects_collision_against(nm("00"), g.a));
}

TEST(HistoryTree, ExpiredEdgesDoNotDetect) {
  figure2_agents f;
  f.meet(f.a, f.b, 1);
  // Age b's record of a beyond T: the stale path must not participate.
  for (std::uint32_t i = 0; i <= figure2_agents::T; ++i)
    f.b.age_edges(/*prune_retention=*/-1);
  history_tree impostor(nm("00"));
  EXPECT_FALSE(f.b.detects_collision_against(nm("00"), impostor));
}

TEST(HistoryTree, GraftReplacesPreviousRecord) {
  figure2_agents f;
  f.meet(f.a, f.b, 1);
  f.meet(f.a, f.b, 9);
  // Still exactly one record of b at depth 1, with the newer sync.
  ASSERT_EQ(f.a.root().edges.size(), 1u);
  EXPECT_EQ(f.a.root().edges[0].sync, 9u);
}

TEST(HistoryTree, DepthTruncationOnGraft) {
  figure2_agents f;
  f.meet(f.a, f.b, 1);
  f.meet(f.b, f.c, 2);
  f.meet(f.c, f.d, 3);
  // d now has a depth-3 chain; an H=3 graft truncates it to depth 2 before
  // attaching, so the receiver stays within depth H.
  history_tree e(nm("000"));
  const history_tree e_before = e;
  e.graft_partner(f.d, figure2_agents::H - 1, 5, figure2_agents::T);
  EXPECT_LE(e.depth(), figure2_agents::H);
  EXPECT_TRUE(e.simply_labelled());
}

TEST(HistoryTree, RemoveNamedSubtreesKeepsSimpleLabelling) {
  figure2_agents f;
  f.meet(f.a, f.b, 1);
  f.meet(f.b, f.c, 2);
  // c's tree contains ... -> b -> a; grafting c into a would create a path
  // a -> c -> b -> a; the own-name scrub removes the trailing a.
  f.meet(f.a, f.c, 4);
  EXPECT_TRUE(f.a.simply_labelled());
}

// A loaded configuration may hold a tree whose root is not the agent's
// name; scrubbing that name must still remove every node it labels.
TEST(HistoryTree, RemoveNamedSubtreesOfAnotherName) {
  figure2_agents f;
  f.meet(f.a, f.b, 1);
  f.meet(f.b, f.c, 2);
  f.meet(f.a, f.c, 4);  // a -1-> b, a -4-> c -2-> b
  f.a.remove_named_subtrees(nm("01"));
  EXPECT_EQ(f.a.node_count(), 2u);
  EXPECT_EQ(f.a.to_string().find("01"), std::string::npos);
  ASSERT_EQ(f.a.root().edges.size(), 1u);
  EXPECT_EQ(f.a.root().edges[0].child.name, nm("10"));
}

TEST(HistoryTree, AgeEdgesPrunesAfterRetention) {
  figure2_agents f;
  f.meet(f.a, f.b, 1);
  EXPECT_EQ(f.a.node_count(), 2u);
  for (std::uint32_t i = 0; i < figure2_agents::T + 5; ++i)
    f.a.age_edges(/*prune_retention=*/3);
  EXPECT_EQ(f.a.node_count(), 1u);  // pruned T + 3 + 1 steps after creation
}

TEST(HistoryTree, NegativeRetentionNeverPrunes) {
  figure2_agents f;
  f.meet(f.a, f.b, 1);
  for (std::uint32_t i = 0; i < 10 * figure2_agents::T; ++i)
    f.a.age_edges(/*prune_retention=*/-1);
  EXPECT_EQ(f.a.node_count(), 2u);
}

// Grafts share the partner's tree instead of copying it; whatever the
// partner does afterwards must not show through.
TEST(HistoryTree, GraftedSnapshotIgnoresThePartnersLaterChanges) {
  figure2_agents f;
  f.meet(f.a, f.b, 1);
  f.meet(f.b, f.c, 2);
  const std::string before = f.c.to_string();
  f.meet(f.b, f.d, 3);
  for (int i = 0; i < 5; ++i) f.b.age_edges(/*prune_retention=*/-1);
  f.b.reset(nm("01"));
  EXPECT_EQ(f.c.to_string(), before);
  EXPECT_EQ(f.c.node_count(), 3u);  // c -2-> b -1-> a
}

// A grafted subtree keeps aging on the owner's clock, however far the two
// clocks are apart.
TEST(HistoryTree, GraftedTimersAgeWithTheOwner) {
  history_tree a(nm("00")), b(nm("01")), c(nm("10"));
  b.graft_partner(c, 2, /*sync=*/4, /*timer=*/10);
  for (int i = 0; i < 4; ++i) b.age_edges(-1);  // b's record of c: 6 left
  a.graft_partner(b, 2, /*sync=*/5, /*timer=*/10);
  a.age_edges(-1);
  a.age_edges(-1);
  for (int i = 0; i < 9; ++i) b.age_edges(-1);
  const tree_node root = a.root();
  ASSERT_EQ(root.edges.size(), 1u);
  EXPECT_EQ(root.edges[0].timer, 8u);
  ASSERT_EQ(root.edges[0].child.edges.size(), 1u);
  EXPECT_EQ(root.edges[0].child.edges[0].timer, 4u);
  EXPECT_EQ(root.edges[0].child.edges[0].expired_for, 0u);
  EXPECT_EQ(b.root().edges[0].expired_for, 3u);
}

// A planted edge that pruning would drop stays until the owner's next
// aging, as it did when pruning deleted subtrees during aging.
TEST(HistoryTree, PlantedExpiredEdgeVanishesAtTheFirstAging) {
  tree_node planted{nm("00"), {}};
  planted.edges.push_back({/*sync=*/1, /*timer=*/0, /*expired_for=*/9,
                           tree_node{nm("01"), {}}});
  history_tree t = history_tree::adopt(planted);
  EXPECT_EQ(t.node_count(), 2u);
  t.age_edges(/*prune_retention=*/3);
  EXPECT_EQ(t.node_count(), 1u);
}

// Trees share nodes across agents, and engines copy and drop agent states
// on several threads: reference counts must be thread-safe and shared nodes
// must never change (run under SSR_SANITIZE=thread via concurrency_suites).
TEST(HistoryTreeConcurrency, SharedNodesSurviveCopiesOnManyThreads) {
  figure2_agents f;
  f.meet(f.a, f.b, 1);
  f.meet(f.b, f.c, 2);
  f.meet(f.c, f.d, 3);
  const std::string expected = f.d.to_string();
  history_tree impostor(nm("00"));
  ASSERT_FALSE(f.d.detects_collision_against(nm("00"), f.a));
  ASSERT_TRUE(f.d.detects_collision_against(nm("00"), impostor));
  std::atomic<int> wrong_detections{0};
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < 4; ++t) {
    workers.emplace_back([&f, &impostor, &wrong_detections, t] {
      for (std::uint32_t i = 1; i <= 2000; ++i) {
        history_tree mine = f.d;
        history_tree other(nm(t % 2 == 0 ? "111" : "000"));
        history_tree::graft_each_other(mine, other, 2, i, 10);
        mine.remove_named_subtrees(mine.root_name());
        mine.age_edges(-1);
        other.age_edges(-1);
        // Detection reads the nodes other threads copy and drop.
        const history_tree copy = f.d;
        if (copy.detects_collision_against(nm("00"), f.a) ||
            !copy.detects_collision_against(nm("00"), impostor) ||
            !mine.detects_collision_against(nm("00"), impostor)) {
          ++wrong_detections;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(f.d.to_string(), expected);
  EXPECT_EQ(wrong_detections.load(), 0);
}

// Protocol 8 on materialized trees: follow the reversed path from the
// responder's root; any sync match is consistent.
bool reference_consistent(const tree_node& responder, const name_t& asker,
                          const std::vector<tree_edge>& path) {
  const tree_node* at = &responder;
  const std::size_t p = path.size();
  for (std::size_t k = 1; k <= p; ++k) {
    const name_t& wanted = k < p ? path[p - 1 - k].child.name : asker;
    const auto next = std::find_if(
        at->edges.begin(), at->edges.end(),
        [&](const tree_edge& e) { return e.child.name == wanted; });
    if (next == at->edges.end()) return false;
    if (next->sync == path[p - k].sync) return true;
    at = &next->child;
  }
  return false;
}

// Protocol 7 lines 1-4 by brute force: every path of all-positive timers
// ending at `partner_name`, in insertion order.
bool reference_detects(const tree_node& node, const name_t& asker,
                       const name_t& partner_name, const tree_node& partner,
                       std::vector<tree_edge>& path) {
  for (const tree_edge& e : node.edges) {
    if (e.timer == 0) continue;
    path.push_back({e.sync, e.timer, 0, tree_node{e.child.name, {}}});
    const bool found =
        (e.child.name == partner_name &&
         !reference_consistent(partner, asker, path)) ||
        reference_detects(e.child, asker, partner_name, partner, path);
    path.pop_back();
    if (found) return true;
  }
  return false;
}

name_t bits_name(std::uint64_t bits, std::uint32_t length) {
  name_t out;
  for (std::uint32_t b = length; b-- > 0;) out.append_bit(((bits >> b) & 1) != 0);
  return out;
}

// Scrambles a materialized tree the way loaded configurations can: edges
// reordered and timers and expiry ages rewritten at random.
void scramble(tree_node& node, rng_t& rng) {
  for (std::size_t i = node.edges.size(); i > 1; --i)
    std::swap(node.edges[i - 1], node.edges[uniform_below(rng, i)]);
  for (tree_edge& e : node.edges) {
    e.timer = static_cast<std::uint32_t>(uniform_below(rng, 8));
    e.expired_for = static_cast<std::uint32_t>(uniform_below(rng, 4));
    scramble(e.child, rng);
  }
}

// Detection reads only fresh links, newest first, and stops early in nodes
// that ascend by expiry; whatever shape a tree has, it must agree with the
// brute-force scan of every fresh path of root().  The worlds mix protocol
// grafts with constant and with random timers, own-name scrubs, pruning at
// several retentions, clocks that drift apart, adopted and scrambled trees,
// and scrubs of other names -- with repeated names, so that both answers
// occur often.
TEST(HistoryTree, DetectionMatchesMaterializedReference) {
  const std::vector<name_t> pool = {
      name_t{},          nm("0"),   nm("1"),  nm("01"), nm("10"), nm("110"),
      bits_name(0x5555'5555'5555'5555u >> 1, 63)};
  int detected = 0, clean = 0;
  for (int world = 0; world < 24; ++world) {
    rng_t rng(derive_seed(915, static_cast<std::uint64_t>(world)));
    const std::int64_t retention = std::array<std::int64_t, 3>{-1, 2, 8}[world % 3];
    const bool constant_timer = world % 2 == 0;
    const std::uint32_t h = 2 + static_cast<std::uint32_t>(world % 3);
    std::vector<history_tree> trees;
    for (std::uint32_t i = 0; i < 8; ++i)
      trees.emplace_back(pool[uniform_below(rng, pool.size())]);
    for (int step = 0; step < 400; ++step) {
      const auto i = static_cast<std::uint32_t>(uniform_below(rng, 8));
      auto j = static_cast<std::uint32_t>(uniform_below(rng, 7));
      if (j >= i) ++j;
      history_tree& a = trees[i];
      history_tree& b = trees[j];
      const name_t& partner_name = uniform_below(rng, 8) == 0
                                       ? pool[uniform_below(rng, pool.size())]
                                       : b.root_name();
      std::vector<tree_edge> path;
      const tree_node a_root = a.root();
      const bool expected = reference_detects(a_root, a.root_name(),
                                              partner_name, b.root(), path);
      ASSERT_EQ(a.detects_collision_against(partner_name, b), expected)
          << "world " << world << " step " << step << "\n"
          << a.to_string() << "against\n" << b.to_string();
      (expected ? detected : clean) += 1;

      switch (uniform_below(rng, 16)) {
        case 0: {  // a loaded configuration: adopted, maybe scrambled
          tree_node plain = a.root();
          if (uniform_below(rng, 2) == 0) scramble(plain, rng);
          a = history_tree::adopt(plain);
          break;
        }
        case 1:  // a scrub of some other name rebuilds the tree
          a.remove_named_subtrees(pool[uniform_below(rng, pool.size())]);
          break;
        case 2:  // clocks drift apart
          for (std::uint64_t k = uniform_below(rng, 5); k-- > 0;)
            a.age_edges(retention);
          break;
        case 3:
          a.reset(pool[uniform_below(rng, pool.size())]);
          break;
        default: {  // a protocol interaction
          const auto sync = static_cast<std::uint32_t>(1 + uniform_below(rng, 3));
          const auto timer = constant_timer
                                 ? 6u
                                 : static_cast<std::uint32_t>(
                                       1 + uniform_below(rng, 8));
          history_tree::graft_each_other(a, b, h - 1, sync, timer);
          a.remove_named_subtrees(a.root_name());
          b.remove_named_subtrees(b.root_name());
          a.age_edges(retention);
          b.age_edges(retention);
        }
      }
    }
  }
  EXPECT_GT(detected, 300);
  EXPECT_GT(clean, 300);
}

TEST(HistoryTree, ToStringRendersPaths) {
  figure2_agents f;
  f.meet(f.a, f.b, 1);
  const std::string s = f.a.to_string();
  EXPECT_NE(s.find("00"), std::string::npos);
  EXPECT_NE(s.find("--1("), std::string::npos);
}

}  // namespace
}  // namespace ssr
