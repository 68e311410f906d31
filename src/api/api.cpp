#include "api/api.hpp"

namespace atcd::api {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::Ok: return "ok";
    case ErrorCode::MalformedRequest: return "malformed_request";
    case ErrorCode::UnsupportedVersion: return "unsupported_version";
    case ErrorCode::UnknownOperation: return "unknown_operation";
    case ErrorCode::InvalidArgument: return "invalid_argument";
    case ErrorCode::ParseError: return "parse_error";
    case ErrorCode::ModelError: return "model_error";
    case ErrorCode::NoSuchSession: return "no_such_session";
    case ErrorCode::Capacity: return "capacity";
    case ErrorCode::SolverFailure: return "solver_failure";
    case ErrorCode::Internal: return "internal";
    case ErrorCode::PersistError: return "persist_error";
  }
  return "internal";
}

std::optional<ErrorCode> parse_error_code(const std::string& name) {
  for (ErrorCode c :
       {ErrorCode::Ok, ErrorCode::MalformedRequest,
        ErrorCode::UnsupportedVersion, ErrorCode::UnknownOperation,
        ErrorCode::InvalidArgument, ErrorCode::ParseError,
        ErrorCode::ModelError, ErrorCode::NoSuchSession, ErrorCode::Capacity,
        ErrorCode::SolverFailure, ErrorCode::Internal,
        ErrorCode::PersistError})
    if (name == to_string(c)) return c;
  return std::nullopt;
}

int exit_code(ErrorCode code) {
  switch (code) {
    case ErrorCode::Ok:
      return 0;
    case ErrorCode::MalformedRequest:
    case ErrorCode::UnsupportedVersion:
    case ErrorCode::UnknownOperation:
    case ErrorCode::InvalidArgument:
    case ErrorCode::NoSuchSession:
      return 2;
    case ErrorCode::ParseError:
    case ErrorCode::ModelError:
      return 3;
    case ErrorCode::Capacity:
    case ErrorCode::SolverFailure:
    case ErrorCode::Internal:
    case ErrorCode::PersistError:
      return 4;
  }
  return 4;
}

const char* to_string(EditOp op) {
  switch (op) {
    case EditOp::SetCost: return "set-cost";
    case EditOp::SetProb: return "set-prob";
    case EditOp::SetDamage: return "set-damage";
    case EditOp::ToggleDefense: return "toggle-defense";
    case EditOp::ReplaceSubtree: return "replace-subtree";
  }
  return "set-cost";
}

std::optional<EditOp> parse_edit_op(const std::string& name) {
  for (EditOp op : {EditOp::SetCost, EditOp::SetProb, EditOp::SetDamage,
                    EditOp::ToggleDefense, EditOp::ReplaceSubtree})
    if (name == to_string(op)) return op;
  return std::nullopt;
}

const char* op_name(const Operation& op) { return kOpNames[op.index()]; }

std::optional<Operation> make_operation(std::string_view name) {
  return detail::alternative_named<Operation>(kOpNames, name);
}

std::optional<engine::Problem> parse_problem(const std::string& name) {
  using engine::Problem;
  for (Problem p : {Problem::Cdpf, Problem::Dgc, Problem::Cgd, Problem::Cedpf,
                    Problem::Edgc, Problem::Cged})
    if (name == engine::to_string(p)) return p;
  return std::nullopt;
}

Response error_response(std::string id, ErrorCode code, std::string message) {
  Response r;
  r.id = std::move(id);
  r.code = code;
  r.error = std::move(message);
  return r;
}

}  // namespace atcd::api
