#include "cred/importer.h"

#include <memory>
#include <vector>

#include "datalog/ast.h"
#include "datalog/lint.h"
#include "datalog/parser.h"
#include "util/strings.h"

namespace lbtrust::cred {

using datalog::ParsedClause;
using datalog::Value;
using util::Result;

Result<ImportStats> ImportCredentialSet(const std::string& root_hash,
                                        CredentialStore* store,
                                        datalog::Workspace* workspace,
                                        const KeyResolver& resolver,
                                        int64_t now) {
  LB_ASSIGN_OR_RETURN(std::vector<std::string> closure,
                      store->ResolveClosure(root_hash));
  ImportStats stats;
  datalog::Transaction txn = workspace->Begin();
  for (const std::string& hash : closure) {
    const Credential* cred = store->Get(hash);
    if (!cred->ValidAt(now)) {
      txn.Abort();
      return util::FailedPrecondition(util::StrCat(
          "credential ", hash, " from '", cred->issuer,
          "' is outside its validity interval at ", now));
    }
    const crypto::RsaPublicKey* key =
        resolver(cred->issuer, cred->key_fingerprint);
    if (key == nullptr) {
      txn.Abort();
      return util::CryptoError(util::StrCat(
          "no key binding for issuer '", cred->issuer, "' with fingerprint ",
          cred->key_fingerprint));
    }
    LB_ASSIGN_OR_RETURN(bool verified, store->VerifySignature(hash, *key));
    if (!verified) {
      txn.Abort();
      return util::CryptoError(util::StrCat(
          "bad signature on credential ", hash, " from '", cred->issuer,
          "'"));
    }
    auto parsed = datalog::ParseProgram(cred->payload);
    if (!parsed.ok()) {
      txn.Abort();
      return parsed.status();
    }
    // Static analysis BEFORE anything stages: a hostile bundle carrying an
    // unsafe/unstratifiable/ill-typed program is rejected with the lint
    // diagnostic (naming the unbound variable or cycle) and zero
    // workspace/store mutation — not discovered later by a failing
    // fixpoint over partially-applied state. The payload speaks from the
    // issuer's context, so it is routed and says-attribution checked
    // against the issuer. Lint reads the clauses parsed above.
    {
      datalog::LintOptions lint_opts;
      lint_opts.builtins = workspace->builtins();
      lint_opts.says_check = true;
      lint_opts.says_principal = cred->issuer;
      datalog::LintReport lint = datalog::LintRouted(
          datalog::RouteClauses(*parsed, cred->issuer), cred->issuer,
          lint_opts);
      if (lint.has_errors()) {
        txn.Abort();
        util::Status status = lint.ToStatus();
        return util::Status(
            status.code(),
            util::StrCat("credential ", hash, " from '", cred->issuer,
                         "' carries an ill-formed program: ",
                         status.message()));
      }
    }
    for (ParsedClause& clause : *parsed) {
      if (clause.kind == ParsedClause::Kind::kConstraint) {
        txn.Abort();
        return util::InvalidArgument(util::StrCat(
            "credential ", hash, " carries a constraint; payloads may only ",
            "contain facts and rules"));
      }
      for (datalog::Rule& rule : clause.rules) {
        Value quoted = Value::CodeRule(
            std::make_shared<const datalog::Rule>(std::move(rule)));
        txn.AddFact("says", {Value::Sym(cred->issuer),
                             Value::Sym(workspace->principal()),
                             std::move(quoted)});
        ++stats.clauses;
      }
    }
    ++stats.credentials;
  }
  LB_RETURN_IF_ERROR(txn.Commit());
  return stats;
}

}  // namespace lbtrust::cred
