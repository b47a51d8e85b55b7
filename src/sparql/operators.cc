#include "sparql/operators.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "rdf/vocabulary.h"

namespace sedge::sparql {
namespace {

using store::EncodedTerm;
using store::ValueSpace;

constexpr EncodedTerm kUnboundValue{ValueSpace::kUnbound, 0};

using Row = std::vector<EncodedTerm>;

/// Appends `v`'s join/DISTINCT key to `key`. Every entry opens with a
/// space byte, ids are fixed-width and literal text is length-prefixed,
/// so a key over several columns stays unambiguous.
void AppendKey(const EncodedTerm& v, const ValueDecoder& decoder,
               std::string* key) {
  if (v.space == ValueSpace::kLiteral || v.space == ValueSpace::kComputed) {
    const std::string text = decoder.Decode(v).ToNTriples();
    const uint64_t size = text.size();
    key->push_back(static_cast<char>(ValueSpace::kLiteral));
    key->append(reinterpret_cast<const char*>(&size), sizeof(size));
    key->append(text);
    return;
  }
  key->push_back(static_cast<char>(v.space));
  key->append(reinterpret_cast<const char*>(&v.id), sizeof(v.id));
}

std::string JoinKey(const Row& row, const std::vector<size_t>& cols,
                    const ValueDecoder& decoder) {
  std::string key;
  for (const size_t c : cols) AppendKey(row[c], decoder, &key);
  return key;
}

/// The expression evaluator's view of one row: unbound cells read as
/// absent.
ExpressionEvaluator::VarLookup RowLookup(const BindingTable& table,
                                         const Row& row) {
  return [&table, &row](const Variable& v) -> std::optional<EncodedTerm> {
    const int c = table.IndexOf(v);
    if (c < 0 || row[static_cast<size_t>(c)].space == ValueSpace::kUnbound) {
      return std::nullopt;
    }
    return row[static_cast<size_t>(c)];
  };
}

/// Concatenates a UNION block's alternatives over the union of their
/// columns (first-seen order); a variable an alternative does not bind is
/// unbound in its rows.
BindingTable UnionAll(std::vector<BindingTable> alternatives) {
  BindingTable combined;
  for (const BindingTable& alt : alternatives) {
    for (const Variable& v : alt.vars) AddVariable(v, &combined.vars);
  }
  for (BindingTable& alt : alternatives) {
    std::vector<size_t> to(alt.vars.size());
    for (size_t i = 0; i < to.size(); ++i) {
      to[i] = static_cast<size_t>(combined.IndexOf(alt.vars[i]));
    }
    for (const Row& row : alt.rows) {
      Row aligned(combined.vars.size(), kUnboundValue);
      for (size_t i = 0; i < to.size(); ++i) aligned[to[i]] = row[i];
      combined.rows.push_back(std::move(aligned));
    }
  }
  return combined;
}

void ApplyBind(const Bind& bind, const CellEncoder& encode,
               ExpressionEvaluator* evaluator, BindingTable* table) {
  const auto col = static_cast<size_t>(table->AddVar(bind.var));
  for (Row& row : table->rows) {
    EvalValue value = evaluator->Evaluate(*bind.expr, RowLookup(*table, row));
    EncodedTerm cell = kUnboundValue;  // a failed BIND leaves it unbound
    switch (value.kind) {
      case EvalValue::Kind::kError:
        break;
      case EvalValue::Kind::kEncoded:
        cell = value.encoded;
        break;
      case EvalValue::Kind::kBool:
        cell = encode(rdf::Term::Literal(value.boolean ? "true" : "false",
                                         rdf::kXsdBoolean),
                      value.boolean ? 1.0 : 0.0);
        break;
      case EvalValue::Kind::kNumber:
        cell = encode(rdf::Term::Literal(std::to_string(value.number),
                                         rdf::kXsdDouble),
                      value.number);
        break;
      case EvalValue::Kind::kString:
        cell = encode(rdf::Term::Literal(std::move(value.string)),
                      std::nullopt);
        break;
      case EvalValue::Kind::kTerm: {
        std::optional<double> numeric;
        if (value.term.IsNumericLiteral()) numeric = value.term.AsDouble();
        cell = encode(std::move(value.term), numeric);
        break;
      }
    }
    row[col] = cell;
  }
}

void ApplyFilter(const Expr& filter, ExpressionEvaluator* evaluator,
                 BindingTable* table) {
  auto& rows = table->rows;
  rows.erase(std::remove_if(rows.begin(), rows.end(),
                            [&](const Row& row) {
                              return !evaluator->EffectiveBool(
                                  filter, RowLookup(*table, row));
                            }),
             rows.end());
}

}  // namespace

BindingTable HashJoin(BindingTable left, BindingTable right,
                      const ValueDecoder& decoder) {
  std::vector<size_t> lcols;  // shared variables, in left's order
  std::vector<size_t> rcols;
  for (size_t i = 0; i < left.vars.size(); ++i) {
    const int rc = right.IndexOf(left.vars[i]);
    if (rc >= 0) {
      lcols.push_back(i);
      rcols.push_back(static_cast<size_t>(rc));
    }
  }
  BindingTable out;
  out.vars = left.vars;
  std::vector<size_t> right_extra;
  for (size_t i = 0; i < right.vars.size(); ++i) {
    if (std::find(rcols.begin(), rcols.end(), i) == rcols.end()) {
      right_extra.push_back(i);
      out.vars.push_back(right.vars[i]);
    }
  }

  std::unordered_map<std::string, std::vector<size_t>> index;
  index.reserve(right.rows.size());
  for (size_t j = 0; j < right.rows.size(); ++j) {
    index[JoinKey(right.rows[j], rcols, decoder)].push_back(j);
  }
  for (const Row& lrow : left.rows) {
    const auto it = index.find(JoinKey(lrow, lcols, decoder));
    if (it == index.end()) continue;
    for (const size_t j : it->second) {
      Row merged;
      merged.reserve(out.vars.size());
      merged.insert(merged.end(), lrow.begin(), lrow.end());
      for (const size_t c : right_extra) merged.push_back(right.rows[j][c]);
      out.rows.push_back(std::move(merged));
    }
  }
  return out;
}

Status FinishGroup(const GroupPattern& group,
                   const AlternativeEvaluator& evaluate_alternative,
                   const ValueDecoder& decoder, const CellEncoder& encode,
                   BindingTable* table) {
  for (size_t b = 0; b < group.unions.size(); ++b) {
    std::vector<BindingTable> alternatives;
    for (size_t a = 0; a < group.unions[b].alternatives.size(); ++a) {
      SEDGE_ASSIGN_OR_RETURN(BindingTable alt, evaluate_alternative(b, a));
      alternatives.push_back(std::move(alt));
    }
    *table = HashJoin(std::move(*table), UnionAll(std::move(alternatives)),
                      decoder);
  }
  ExpressionEvaluator evaluator(&decoder);
  for (const Bind& bind : group.binds) {
    ApplyBind(bind, encode, &evaluator, table);
  }
  for (const auto& filter : group.filters) {
    ApplyFilter(*filter, &evaluator, table);
  }
  return Status::OK();
}

BindingTable ApplyModifiers(BindingTable table, const Query& query,
                            const ValueDecoder& decoder) {
  BindingTable out;
  out.vars = query.select.empty() ? query.MentionedVariables() : query.select;
  std::vector<int> cols;
  cols.reserve(out.vars.size());
  for (const Variable& v : out.vars) cols.push_back(table.IndexOf(v));
  out.rows.reserve(table.rows.size());
  for (const Row& row : table.rows) {
    Row projected;
    projected.reserve(cols.size());
    for (const int c : cols) {
      projected.push_back(c >= 0 ? row[static_cast<size_t>(c)]
                                 : kUnboundValue);
    }
    out.rows.push_back(std::move(projected));
  }

  auto& rows = out.rows;
  if (query.distinct) {
    std::unordered_set<std::string> seen;
    std::vector<Row> unique;
    for (Row& row : rows) {
      std::string key;
      for (const EncodedTerm& v : row) AppendKey(v, decoder, &key);
      if (seen.insert(std::move(key)).second) unique.push_back(std::move(row));
    }
    rows = std::move(unique);
  }
  const auto drop = static_cast<size_t>(
      std::min<uint64_t>(query.offset.value_or(0), rows.size()));
  rows.erase(rows.begin(), rows.begin() + static_cast<ptrdiff_t>(drop));
  if (query.limit && rows.size() > *query.limit) {
    rows.resize(static_cast<size_t>(*query.limit));
  }
  return out;
}

QueryResult DecodeTable(const BindingTable& table,
                        const ValueDecoder& decoder) {
  QueryResult result;
  result.var_names.reserve(table.vars.size());
  for (const Variable& v : table.vars) result.var_names.push_back(v.name);
  result.rows.reserve(table.rows.size());
  for (const Row& row : table.rows) {
    std::vector<std::optional<rdf::Term>> decoded;
    decoded.reserve(row.size());
    for (const EncodedTerm& v : row) {
      if (v.space == ValueSpace::kUnbound) {
        decoded.emplace_back(std::nullopt);
      } else {
        decoded.emplace_back(decoder.Decode(v));
      }
    }
    result.rows.push_back(std::move(decoded));
  }
  return result;
}

}  // namespace sedge::sparql
