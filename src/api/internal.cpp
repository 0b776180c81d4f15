#include "api/internal.hpp"

#include <exception>
#include <stdexcept>

namespace xoridx::api::internal {

Status status_from_current_exception(StatusCode runtime_code) {
  try {
    throw;
  } catch (const std::invalid_argument& e) {
    return {StatusCode::invalid_argument, e.what()};
  } catch (const std::exception& e) {
    return {runtime_code, e.what()};
  } catch (...) {
    return {StatusCode::internal, "unknown error"};
  }
}

Status cell_error_status(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const engine::CampaignError& e) {
    return status_from_campaign_error(e);
  } catch (const std::exception& e) {
    return {StatusCode::internal, e.what()};
  } catch (...) {
    return {StatusCode::internal, "unknown cell failure"};
  }
}

}  // namespace xoridx::api::internal
