//===- Probe.cpp - The same-run reference probe ---------------------------===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "Probe.h"
#include "Trace.h"

#include <z3.h>

#include <fstream>
#include <sstream>

using namespace relax::bench;

bool Probe::load(const std::string &Path, std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read probe scripts " + Path;
    return false;
  }
  const std::string Marker = "; probe ";
  std::string Line;
  Script *Cur = nullptr;
  while (std::getline(In, Line)) {
    if (Line.compare(0, Marker.size(), Marker) == 0) {
      size_t At = Line.find(" expect ");
      if (At == std::string::npos) {
        Error = "malformed probe header: " + Line;
        return false;
      }
      std::string Want = Line.substr(At + 8);
      if (Want != "sat" && Want != "unsat") {
        Error = "probe header names no status: " + Line;
        return false;
      }
      Scripts.push_back(Script{"", Want == "sat"});
      Cur = &Scripts.back();
      continue;
    }
    // (check-sat) is a command, not an assertion; the probe checks itself.
    if (Cur && Line != "(check-sat)")
      Cur->Text += Line + "\n";
  }
  if (Scripts.empty()) {
    Error = "no probe scripts in " + Path;
    return false;
  }
  return true;
}

double Probe::run() {
  Clock::time_point Start = Clock::now();
  Z3_config Cfg = Z3_mk_config();
  Z3_context C = Z3_mk_context(Cfg);
  Z3_del_config(Cfg);
  // Errors are read back per script instead of aborting the process.
  Z3_set_error_handler(C, nullptr);
  // One solver, one scope per script: the shape of relaxc's own
  // persistent-context Z3 backend.
  Z3_solver Slv = Z3_mk_solver(C);
  Z3_solver_inc_ref(C, Slv);
  for (const Script &S : Scripts) {
    Z3_ast_vector Asserts = Z3_parse_smtlib2_string(
        C, S.Text.c_str(), 0, nullptr, nullptr, 0, nullptr, nullptr);
    if (Z3_get_error_code(C) != Z3_OK) {
      ++Wrong;
      continue;
    }
    Z3_ast_vector_inc_ref(C, Asserts);
    Z3_solver_push(C, Slv);
    for (unsigned I = 0, N = Z3_ast_vector_size(C, Asserts); I != N; ++I)
      Z3_solver_assert(C, Slv, Z3_ast_vector_get(C, Asserts, I));
    Z3_lbool R = Z3_solver_check(C, Slv);
    if (R != (S.ExpectSat ? Z3_L_TRUE : Z3_L_FALSE))
      ++Wrong;
    Z3_solver_pop(C, Slv, 1);
    Z3_ast_vector_dec_ref(C, Asserts);
  }
  Z3_solver_dec_ref(C, Slv);
  Z3_del_context(C);
  return msBetween(Start, Clock::now());
}

std::string Probe::z3Version() { return Z3_get_full_version(); }
