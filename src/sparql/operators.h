// Binding-table operators shared by the query engines (paper Section 5.2).
//
// An engine extends a binding table one triple pattern at a time; what
// follows the basic graph pattern is the same everywhere and lives here:
// UNION (alternatives aligned, concatenated and hash-joined onto the
// table), BIND, FILTER, the solution modifiers, and result decoding.
// sparql::Executor runs them over one store's encoded ids and
// dist::Coordinator over TermMap global ids ({kInstance, gid} cells).
// The engines differ only in what they pass in: a ValueDecoder and a
// CellEncoder. baselines::BaselineEngine keeps its own copy on purpose:
// it is the independent reference the property tests compare against.
//
// Join and DISTINCT keys are a cell's raw (space, id), except for
// kLiteral and kComputed cells, which key by decoded content: equal
// literals can sit at distinct pool positions, and a computed value can
// equal a stored one.
//
// The functions keep no state between calls; serve readers and the
// coordinator call them concurrently. Per-query state (a computed-value
// pool, a term map) belongs to the engine behind the decoder and encoder.

#ifndef SEDGE_SPARQL_OPERATORS_H_
#define SEDGE_SPARQL_OPERATORS_H_

#include <cstddef>
#include <functional>
#include <optional>

#include "rdf/term.h"
#include "sparql/ast.h"
#include "sparql/expression.h"
#include "sparql/result_table.h"
#include "store/encoded.h"
#include "util/status.h"

namespace sedge::sparql {

/// Turns a BIND result that is not already a cell into one. `numeric` is
/// the value as a number, when it has one.
using CellEncoder =
    std::function<store::EncodedTerm(rdf::Term term,
                                     std::optional<double> numeric)>;

/// Evaluates alternative `alt` of UNION block `block` of the group being
/// finished, as a group of its own.
using AlternativeEvaluator =
    std::function<Result<BindingTable>(size_t block, size_t alt)>;

/// Inner hash join on the variables the tables share (none: cartesian
/// product). Output columns are left's, then right's unshared ones; an
/// unbound cell joins only an unbound cell.
BindingTable HashJoin(BindingTable left, BindingTable right,
                      const ValueDecoder& decoder);

/// Applies what follows a group's basic graph pattern to `table`, in
/// SPARQL group order: each UNION block (joined onto the table), then the
/// BINDs in declaration order, then the FILTERs.
Status FinishGroup(const GroupPattern& group,
                   const AlternativeEvaluator& evaluate_alternative,
                   const ValueDecoder& decoder, const CellEncoder& encode,
                   BindingTable* table);

/// Solution modifiers, in order: projection onto `query.select` (every
/// mentioned variable for SELECT *; a variable the table lacks projects
/// unbound), DISTINCT, OFFSET, LIMIT.
BindingTable ApplyModifiers(BindingTable table, const Query& query,
                            const ValueDecoder& decoder);

/// Materializes every cell; unbound cells decode to nullopt.
QueryResult DecodeTable(const BindingTable& table,
                        const ValueDecoder& decoder);

}  // namespace sedge::sparql

#endif  // SEDGE_SPARQL_OPERATORS_H_
