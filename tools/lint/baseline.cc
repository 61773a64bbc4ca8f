#include "baseline.h"

#include "common/json.h"
#include "obs/json_encoder.h"

namespace homets::lint {

std::string RenderBaseline(const std::vector<Violation>& violations) {
  std::map<std::pair<std::string, std::string>, size_t> counts;
  for (const Violation& v : violations) ++counts[{v.file, v.rule}];
  obs::JsonEncoder out;
  out.BeginObject()
      .Member("schema_version", 1)
      .Member("tool", "homets_lint")
      .Key("entries")
      .BeginArray();
  for (const auto& [key, count] : counts) {
    out.BeginObject()
        .Member("file", key.first)
        .Member("rule", key.second)
        .Member("count", count)
        .EndObject();
  }
  out.EndArray().EndObject();
  return out.str();
}

Result<Baseline> LoadBaseline(const std::string& path) {
  Baseline baseline;
  HOMETS_ASSIGN_OR_RETURN(const JsonValue doc, ReadJsonFile(path));
  const JsonValue* version = doc.Find("schema_version");
  if (version == nullptr || !version->is_number() ||
      version->number_value() != 1) {
    return Status::InvalidArgument(path +
                                   ": unsupported baseline schema_version");
  }
  const JsonValue* entries = doc.Find("entries");
  if (entries == nullptr || !entries->is_array()) {
    return Status::InvalidArgument(path + ": expected an \"entries\" array");
  }
  for (const JsonValue& entry : entries->array_items()) {
    const JsonValue* file = entry.Find("file");
    const JsonValue* rule = entry.Find("rule");
    const JsonValue* count = entry.Find("count");
    if (!entry.is_object() || file == nullptr || !file->is_string() ||
        rule == nullptr || !rule->is_string() || count == nullptr ||
        !count->is_number()) {
      return Status::InvalidArgument(
          path + ": each entry needs string \"file\"/\"rule\" and numeric "
                 "\"count\"");
    }
    baseline.entries[{file->string_value(), rule->string_value()}] =
        static_cast<size_t>(count->number_value());
  }
  return baseline;
}

std::vector<Violation> SubtractBaseline(const std::vector<Violation>& all,
                                        const Baseline& baseline) {
  std::map<std::pair<std::string, std::string>, size_t> budget =
      baseline.entries;
  std::vector<Violation> rest;
  for (const Violation& v : all) {
    const auto it = budget.find({v.file, v.rule});
    if (it != budget.end() && it->second > 0) {
      --it->second;
      continue;
    }
    rest.push_back(v);
  }
  return rest;
}

}  // namespace homets::lint
