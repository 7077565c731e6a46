#include "sched/registry.hpp"

#include <stdexcept>

#include "sched/baselines.hpp"
#include "sched/heuristics.hpp"

namespace tcgrid::sched {

namespace {

const Rule kRules[] = {Rule::IP, Rule::IE, Rule::IY, Rule::IAY};
const Criterion kCriteria[] = {Criterion::P, Criterion::E, Criterion::Y};

bool parse_rule(std::string_view s, Rule& out) {
  for (Rule r : kRules) {
    if (s == to_string(r)) {
      out = r;
      return true;
    }
  }
  return false;
}

bool parse_criterion(std::string_view s, Criterion& out) {
  for (Criterion c : kCriteria) {
    if (s == to_string(c)) {
      out = c;
      return true;
    }
  }
  return false;
}

}  // namespace

const std::vector<std::string>& all_heuristic_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    v.emplace_back("RANDOM");
    for (Rule r : kRules) v.emplace_back(to_string(r));
    for (Criterion c : kCriteria) {
      for (Rule r : kRules) {
        v.push_back(std::string(to_string(c)) + "-" + std::string(to_string(r)));
      }
    }
    return v;
  }();
  return names;
}

const std::vector<std::string>& tableii_heuristic_names() {
  static const std::vector<std::string> names = {
      "Y-IE", "P-IE", "E-IAY", "E-IY", "E-IP", "IAY", "IY", "IE"};
  return names;
}

const std::vector<std::string>& extension_heuristic_names() {
  static const std::vector<std::string> names = {
      "FASTEST", "MOSTAVAIL", "UPTIME", "ADAPT-IE", "ADAPT-IAY",
      "ADAPT-Y-IE", "ADAPT-P-IE", "ADAPT-E-IAY"};
  return names;
}

bool is_heuristic_name(std::string_view name) {
  for (const auto& n : all_heuristic_names()) {
    if (n == name) return true;
  }
  for (const auto& n : extension_heuristic_names()) {
    if (n == name) return true;
  }
  return false;
}

std::unique_ptr<sim::Scheduler> make_scheduler(std::string_view name,
                                               const Estimator& estimator,
                                               std::uint64_t seed) {
  if (name == "RANDOM") return std::make_unique<RandomScheduler>(seed);
  if (name == "FASTEST") return std::make_unique<FastestScheduler>();
  if (name == "MOSTAVAIL") return std::make_unique<MostAvailableScheduler>();
  if (name == "UPTIME") return std::make_unique<UptimeScheduler>();

  if (name.rfind("ADAPT-", 0) == 0) {
    const auto body = name.substr(6);
    const auto dash = body.find('-');
    std::optional<Criterion> crit;
    Rule rule;
    if (dash == std::string_view::npos) {
      if (!parse_rule(body, rule)) {
        throw std::invalid_argument("make_scheduler: unknown heuristic '" +
                                    std::string(name) + "'");
      }
    } else {
      Criterion c;
      if (!parse_criterion(body.substr(0, dash), c) ||
          !parse_rule(body.substr(dash + 1), rule)) {
        throw std::invalid_argument("make_scheduler: unknown heuristic '" +
                                    std::string(name) + "'");
      }
      crit = c;
    }
    return std::make_unique<AdaptiveScheduler>(crit, rule, estimator.platform(),
                                               estimator.app(), estimator.eps());
  }

  const auto dash = name.find('-');
  if (dash == std::string_view::npos) {
    Rule rule;
    if (parse_rule(name, rule)) {
      return std::make_unique<PassiveScheduler>(rule, estimator);
    }
  } else {
    Criterion crit;
    Rule rule;
    if (parse_criterion(name.substr(0, dash), crit) &&
        parse_rule(name.substr(dash + 1), rule)) {
      return std::make_unique<ProactiveScheduler>(crit, rule, estimator);
    }
  }
  throw std::invalid_argument("make_scheduler: unknown heuristic '" +
                              std::string(name) + "'");
}

BuildCounts build_counts(const sim::Scheduler& scheduler) {
  if (const auto* s = dynamic_cast<const ProactiveScheduler*>(&scheduler)) {
    return s->build_counts();
  }
  if (const auto* s = dynamic_cast<const PassiveScheduler*>(&scheduler)) {
    return s->build_counts();
  }
  return {};
}

}  // namespace tcgrid::sched
