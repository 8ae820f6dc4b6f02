#pragma once

#include <functional>
#include <string>
#include <vector>

#include "hermes/lint/lexer.hpp"

namespace hermes::lint {

/// One statement of a function body. Control constructs (if/else, loops,
/// switch, nested lambdas and blocks) are block statements: `text` holds
/// the header (`for (int s = 0; s < S; ++s)`) and `children` the body.
/// Plain statements hold the full statement text. `line0` is 0-based.
struct Stmt {
  int line0 = 0;
  std::string text;
  bool is_block = false;
  std::vector<Stmt> children;
};

/// A function (or member function / lambda-free body) extracted from the
/// lexed token stream: the intra-procedural unit the dataflow rules run
/// over. `defs` maps identifiers to the concatenated right-hand sides of
/// every assignment/initialization in the body, with for-loop induction
/// variables additionally defined by their loop bound — the def/use
/// backbone for provenance queries.
struct Function {
  std::string name;
  std::string params;  ///< raw parameter-list text
  int open_line0 = 0;
  int close_line0 = 0;
  std::vector<Stmt> body;
};

/// Every function in the file, nested blocks resolved. Token-level: no
/// template disambiguation, but robust to wrapped declarations, lambdas,
/// and class nesting.
std::vector<Function> extract_functions(const std::vector<Line>& lines);

/// A dataflow rule reports through this: 0-based line + message.
using DataflowSink = std::function<void(int line0, const std::string& message)>;

/// All right-hand sides ever assigned to `ident` in the function,
/// including for-loop bounds of induction variables ("" if never).
std::string defs_of(const Function& fn, const std::string& ident);

/// True when `ident`'s value provably derives from shard-ownership
/// arithmetic: a parameter whose name names the shard, or a def chain
/// (depth-limited) that reaches shard_of_* / num_shards-style expressions.
bool has_shard_provenance(const Function& fn, const std::string& ident, int depth = 4);

/// core.arena-lifetime: flags use of an ArenaHandle or of a Packet
/// reference/pointer derived from it after the owning arena freed the
/// slot (`arena.free(h)`) or reset wholesale (`arena.reset()/clear()`),
/// with branch-aware reachability: a free followed by return/continue/
/// break does not poison the fall-through path. `sharded_mask[line]`
/// additionally bans caching a live handle into a member (`..._`) inside
/// HERMES_SHARDED barrier code — handles do not survive a barrier round.
void check_arena_lifetime(const Function& fn, const std::vector<char>& sharded_mask,
                          const DataflowSink& sink);

/// sim.shard-race, indexing half: subscripts of HERMES_SHARD_OWNED
/// containers must use an index with shard provenance.
void check_shard_indexing(const Function& fn, const std::vector<std::string>& owned,
                          const DataflowSink& sink);

/// sim.shard-race, escape half: dereferences (direct or through a local
/// alias) of Port*/Host* values inside HERMES_SHARDED lines.
/// `ptr_names` are the file-wide declared Port*/Host* variables; alias
/// assignments inside the function extend the tracked set.
void check_shard_ptr_escape(const Function& fn, const std::vector<char>& sharded_mask,
                            const std::vector<std::string>& ptr_names, const DataflowSink& sink);

/// sim.float-order: floating-point accumulation whose result depends on
/// unordered-container iteration order — += / -= / *= on a float/double
/// inside a loop over an unordered container, or std::accumulate/reduce
/// with a floating seed over its iterators.
void check_float_order(const Function& fn, const std::vector<std::string>& unordered,
                       const DataflowSink& sink);

}  // namespace hermes::lint
