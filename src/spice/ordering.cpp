#include "spice/ordering.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>

namespace mda::spice {

namespace {

using Index = std::size_t;

Index at(int i) { return static_cast<Index>(i); }

}  // namespace

std::vector<int> pivot_stable_min_degree(int n, const std::vector<int>& rows,
                                         const std::vector<int>& cols,
                                         const std::vector<int>& guarded) {
  const Index un = at(n);
  const Index nnz = rows.size();
  // Visit marks: every pass draws fresh stamps from one counter, so the
  // array is never cleared.
  std::vector<int> mark(un, -1);
  int stamp = -1;

  // Off-diagonal triplets bucketed by row (row -> cols) and by column
  // (col -> rows), duplicates kept.
  std::vector<int> rptr(un + 1, 0);
  std::vector<int> cptr(un + 1, 0);
  for (Index k = 0; k < nnz; ++k) {
    if (rows[k] == cols[k]) continue;
    ++rptr[at(rows[k]) + 1];
    ++cptr[at(cols[k]) + 1];
  }
  for (Index v = 0; v < un; ++v) {
    rptr[v + 1] += rptr[v];
    cptr[v + 1] += cptr[v];
  }
  std::vector<int> rcol(at(rptr[un]));
  std::vector<int> crow(at(cptr[un]));
  {
    std::vector<int> rnext(rptr.begin(), rptr.end() - 1);
    std::vector<int> cnext(cptr.begin(), cptr.end() - 1);
    for (Index k = 0; k < nnz; ++k) {
      const int r = rows[k];
      const int c = cols[k];
      if (r == c) continue;
      rcol[at(rnext[at(r)]++)] = c;
      crow[at(cnext[at(c)]++)] = r;
    }
  }

  // Symmetrised, deduplicated adjacency: variable i's neighbours are
  // adj[apos[i] .. apos[i] + alen[i]).  That slot is i's for the whole
  // elimination (it later holds i's elements too; see below).
  std::vector<int> adj(rcol.size() + crow.size());
  std::vector<int> apos(un);
  std::vector<int> alen(un);
  {
    int pos = 0;
    for (Index i = 0; i < un; ++i) {
      ++stamp;
      apos[i] = pos;
      auto add = [&](int j) {
        if (mark[at(j)] == stamp) return;
        mark[at(j)] = stamp;
        adj[at(pos++)] = j;
      };
      for (int k = rptr[i]; k < rptr[i + 1]; ++k) add(rcol[at(k)]);
      for (int k = cptr[i]; k < cptr[i + 1]; ++k) add(crow[at(k)]);
      alen[i] = pos - apos[i];
    }
  }

  // Precedence constraint.  Input nodes of guarded unknown b: columns of
  // row b that are neither b nor a row of column b (the output node).
  std::vector<char> is_input(un, 0);
  for (int b : guarded) {
    ++stamp;
    for (int k = cptr[at(b)]; k < cptr[at(b) + 1]; ++k) {
      mark[at(crow[at(k)])] = stamp;
    }
    for (int k = rptr[at(b)]; k < rptr[at(b) + 1]; ++k) {
      const int c = rcol[at(k)];
      if (mark[at(c)] != stamp) is_input[at(c)] = 1;
    }
  }
  // (input node, guarded unknown) edges for every input node within two
  // hops of the guarded unknown.
  std::vector<int> blocked(un, 0);
  std::vector<std::pair<int, int>> edges;
  for (int b : guarded) {
    ++stamp;
    mark[at(b)] = stamp;
    auto visit = [&](int w) {
      if (mark[at(w)] == stamp) return;
      mark[at(w)] = stamp;
      if (is_input[at(w)] != 0) {
        edges.emplace_back(w, b);
        ++blocked[at(b)];
      }
    };
    const int b0 = apos[at(b)];
    const int b1 = b0 + alen[at(b)];
    for (int k = b0; k < b1; ++k) visit(adj[at(k)]);
    for (int k = b0; k < b1; ++k) {
      const int w = adj[at(k)];
      for (int m = apos[at(w)]; m < apos[at(w)] + alen[at(w)]; ++m) {
        visit(adj[at(m)]);
      }
    }
  }
  std::vector<int> succ_ptr(un + 1, 0);
  for (const auto& e : edges) ++succ_ptr[at(e.first) + 1];
  for (Index v = 0; v < un; ++v) succ_ptr[v + 1] += succ_ptr[v];
  std::vector<int> succ(edges.size());
  {
    std::vector<int> next(succ_ptr.begin(), succ_ptr.end() - 1);
    for (const auto& e : edges) succ[at(next[at(e.first)]++)] = e.second;
  }

  // Approximate minimum degree on the quotient graph (Amestoy, Davis &
  // Duff).  An eliminated unknown p becomes an element whose member list
  // L_p = pool[epos[p] .. + elen[p]) holds the uneliminated unknowns it
  // couples.  Unknown i keeps, in its own adjacency slot, its remaining
  // original neighbours adj[apos[i] .. + alen[i]) followed by its adjacent
  // elements (nel[i] of them).  Every element containing the pivot is
  // absorbed into the new one, so member lists only ever hold uneliminated
  // unknowns, and each member of L_p loses the pivot from its neighbours
  // or an absorbed element from its elements — so adding the new element
  // never outgrows the slot.  Degrees are AMD's upper bounds on the
  // external degree.  The heap holds (degree, unknown) with lazy deletion:
  // an entry is live only while its unknown is uneliminated, unblocked and
  // still of that degree, and every degree change or unblocking pushes a
  // fresh one, so the live minimum is the least degree with ties to the
  // lowest index.
  enum : char { kVariable = 0, kElement = 1, kAbsorbed = 2 };
  std::vector<char> state(un, kVariable);
  std::vector<int> nel(un, 0);
  std::vector<int> pool;
  pool.reserve(adj.size());
  std::vector<int> epos(un, 0);
  std::vector<int> elen(un, 0);
  std::vector<int> deg(alen);
  std::vector<int> wstamp(un, -1);
  std::vector<int> w(un, 0);
  // Heap keys pack (degree, unknown) into one integer: the smallest key is
  // the least degree, ties to the lowest index.
  auto key = [](int d, int v) {
    return (static_cast<std::uint64_t>(d) << 32) |
           static_cast<std::uint32_t>(v);
  };
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  for (Index v = 0; v < un; ++v) {
    if (blocked[v] == 0) heap.push(key(deg[v], static_cast<int>(v)));
  }
  std::vector<int> perm;
  perm.reserve(un);
  int remaining = n;
  while (perm.size() < un) {
    if (heap.empty()) {
      // Only a cyclic constraint (no circuit here builds one) can starve
      // the heap; release every blocked unknown rather than stall.
      for (Index v = 0; v < un; ++v) {
        if (state[v] == kVariable && blocked[v] > 0) {
          blocked[v] = 0;
          heap.push(key(deg[v], static_cast<int>(v)));
        }
      }
      continue;
    }
    const std::uint64_t top = heap.top();
    heap.pop();
    const int p = static_cast<int>(top & 0xffffffffu);
    const Index up = at(p);
    if (state[up] != kVariable || blocked[up] > 0 || top != key(deg[up], p)) {
      continue;
    }
    state[up] = kElement;
    perm.push_back(p);
    --remaining;

    // L_p: the pivot's remaining neighbours plus the members of every
    // element it touches (those elements are absorbed into p).
    const int lp = ++stamp;
    mark[up] = lp;
    const int start = static_cast<int>(pool.size());
    const int p_vars = apos[up] + alen[up];
    for (int k = apos[up]; k < p_vars + nel[up]; ++k) {
      const int j = adj[at(k)];
      if (k < p_vars) {
        if (mark[at(j)] != lp) {
          mark[at(j)] = lp;
          pool.push_back(j);
        }
        continue;
      }
      if (state[at(j)] != kElement) continue;
      state[at(j)] = kAbsorbed;
      for (int m = epos[at(j)]; m < epos[at(j)] + elen[at(j)]; ++m) {
        const int x = pool[at(m)];
        if (mark[at(x)] != lp) {
          mark[at(x)] = lp;
          pool.push_back(x);
        }
      }
    }
    epos[up] = start;
    elen[up] = static_cast<int>(pool.size()) - start;
    const int nlp = elen[up];

    // w[e] = |L_e \ L_p| for every live element next to L_p: start from
    // |L_e| and count down once per member that is also in L_p.
    const int wg = ++stamp;
    for (int k = start; k < start + nlp; ++k) {
      const Index ui = at(pool[at(k)]);
      const int e0 = apos[ui] + alen[ui];
      for (int m = e0; m < e0 + nel[ui]; ++m) {
        const Index ue = at(adj[at(m)]);
        if (state[ue] != kElement) continue;
        if (wstamp[ue] != wg) {
          wstamp[ue] = wg;
          w[ue] = elen[ue];
        }
        --w[ue];
      }
    }

    // Prune and re-degree every member of L_p, compacting its slot as
    // [neighbours outside L_p | live elements | p].
    for (int k = start; k < start + nlp; ++k) {
      const int i = pool[at(k)];
      const Index ui = at(i);
      const int e0 = apos[ui] + alen[ui];
      const int e1 = e0 + nel[ui];
      int out = apos[ui];
      for (int m = apos[ui]; m < e0; ++m) {
        const int j = adj[at(m)];
        if (mark[at(j)] != lp) adj[at(out++)] = j;
      }
      alen[ui] = out - apos[ui];
      int ext = alen[ui] + nlp - 1;
      for (int m = e0; m < e1; ++m) {
        const int e = adj[at(m)];
        if (state[at(e)] != kElement) continue;
        if (w[at(e)] == 0) {
          // L_e is inside L_p: aggressive absorption.
          state[at(e)] = kAbsorbed;
          continue;
        }
        adj[at(out++)] = e;
        ext += w[at(e)];
      }
      adj[at(out++)] = p;
      nel[ui] = out - apos[ui] - alen[ui];
      const int d = std::min({remaining - 1, deg[ui] + nlp - 1, ext});
      if (d != deg[ui]) {
        deg[ui] = d;
        if (blocked[ui] == 0) heap.push(key(d, i));
      }
    }

    for (int s = succ_ptr[up]; s < succ_ptr[up + 1]; ++s) {
      const Index ub = at(succ[at(s)]);
      if (blocked[ub] > 0 && --blocked[ub] == 0) {
        heap.push(key(deg[ub], static_cast<int>(ub)));
      }
    }
  }
  return perm;
}

}  // namespace mda::spice
