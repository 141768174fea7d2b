#include "datalog/dump.h"

#include <algorithm>

#include "datalog/pretty.h"
#include "util/strings.h"

namespace lbtrust::datalog {

namespace {

bool IsEngineRelation(const std::string& name) {
  // Meta bookkeeping and reflection tables are dumped only on request.
  static const char* kEngine[] = {"active", "owner",   "pname", "head",
                                  "body",   "functor", "arg",   "negated",
                                  "vname",  "value"};
  for (const char* e : kEngine) {
    if (name == e) return true;
  }
  return util::StartsWith(name, "$");
}

}  // namespace

std::string DumpRelation(const Workspace& workspace, const std::string& name,
                         size_t max_rows) {
  const Relation* rel = workspace.GetRelation(name);
  if (rel == nullptr) return util::StrCat(name, ": <no relation>\n");
  std::vector<std::string> lines;
  lines.reserve(rel->size());
  for (size_t i = 0; i < rel->size(); ++i) {
    lines.push_back(TupleToString(rel->RowTuple(i)));
  }
  std::sort(lines.begin(), lines.end());
  std::string out = util::StrCat(name, "/", rel->arity(), "  (", rel->size(),
                                 " rows)\n");
  size_t shown = 0;
  for (const std::string& line : lines) {
    if (max_rows != 0 && shown == max_rows) {
      out += util::StrCat("  ... ", lines.size() - shown, " more\n");
      break;
    }
    out += util::StrCat("  ", name, line, "\n");
    ++shown;
  }
  return out;
}

std::string DumpWorkspace(const Workspace& workspace, size_t max_rows,
                          bool sort_rules) {
  std::string out =
      util::StrCat("== workspace of '", workspace.principal(), "' ==\n");
  out += "\n-- active rules --\n";
  std::vector<std::string> rule_lines;
  for (const Rule* rule : workspace.rules()) {
    rule_lines.push_back(util::StrCat("  ", PrintRule(*rule), "\n"));
  }
  if (sort_rules) std::sort(rule_lines.begin(), rule_lines.end());
  for (const std::string& line : rule_lines) out += line;
  out += "\n-- relations --\n";
  for (const auto& [name, info] : workspace.catalog().predicates()) {
    if (info.builtin || IsEngineRelation(name)) continue;
    const Relation* rel = workspace.GetRelation(name);
    if (rel == nullptr || rel->empty()) continue;
    out += DumpRelation(workspace, name, max_rows);
  }
  return out;
}

}  // namespace lbtrust::datalog
