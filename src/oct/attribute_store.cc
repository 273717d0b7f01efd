#include "oct/attribute_store.h"

namespace papyrus::oct {

void AttributeStore::Set(const ObjectId& id, const std::string& attr,
                         const std::string& value) {
  AttributeEntry& e = attrs_[id][attr];
  e.name = attr;
  e.value = value;
  e.mode = AttributeMode::kStored;
  e.computed = true;
}

void AttributeStore::Attach(const ObjectId& id, const std::string& attr,
                            const std::string& compute_tool,
                            AttributeMode mode) {
  AttributeEntry& e = attrs_[id][attr];
  e.name = attr;
  e.compute_tool = compute_tool;
  e.mode = mode;
  // Attach never clobbers an already-computed value (e.g. one inherited
  // through a tool's inherit list before the type spec was attached).
}

Status AttributeStore::SetComputed(const ObjectId& id,
                                   const std::string& attr,
                                   const std::string& value) {
  auto obj_it = attrs_.find(id);
  if (obj_it == attrs_.end()) {
    return Status::NotFound("attribute not attached: " + id.ToString() +
                            "." + attr);
  }
  auto it = obj_it->second.find(attr);
  if (it == obj_it->second.end()) {
    return Status::NotFound("attribute not attached: " + id.ToString() +
                            "." + attr);
  }
  it->second.value = value;
  it->second.computed = true;
  return Status::OK();
}

Status AttributeStore::Invalidate(const ObjectId& id,
                                  const std::string& attr) {
  auto obj_it = attrs_.find(id);
  if (obj_it == attrs_.end()) {
    return Status::NotFound("attribute not attached: " + id.ToString() +
                            "." + attr);
  }
  auto it = obj_it->second.find(attr);
  if (it == obj_it->second.end()) {
    return Status::NotFound("attribute not attached: " + id.ToString() +
                            "." + attr);
  }
  it->second.computed = false;
  return Status::OK();
}

Result<AttributeEntry> AttributeStore::Get(const ObjectId& id,
                                           const std::string& attr) const {
  auto obj_it = attrs_.find(id);
  if (obj_it == attrs_.end()) {
    return Status::NotFound("no attributes for " + id.ToString());
  }
  auto it = obj_it->second.find(attr);
  if (it == obj_it->second.end()) {
    return Status::NotFound("no attribute " + attr + " on " +
                            id.ToString());
  }
  return it->second;
}

Result<std::string> AttributeStore::GetValue(const ObjectId& id,
                                             const std::string& attr) const {
  if (const std::string* value = FindValue(id, attr)) return *value;
  auto entry = Get(id, attr);
  if (!entry.ok()) return entry.status();
  return Status::FailedPrecondition("attribute " + attr + " on " +
                                    id.ToString() + " not yet computed");
}

const std::string* AttributeStore::FindValue(const ObjectId& id,
                                             const std::string& attr) const {
  auto obj_it = attrs_.find(id);
  if (obj_it == attrs_.end()) return nullptr;
  auto it = obj_it->second.find(attr);
  if (it == obj_it->second.end() || !it->second.computed) return nullptr;
  return &it->second.value;
}

bool AttributeStore::Has(const ObjectId& id, const std::string& attr) const {
  auto obj_it = attrs_.find(id);
  return obj_it != attrs_.end() &&
         obj_it->second.find(attr) != obj_it->second.end();
}

std::vector<AttributeEntry> AttributeStore::List(const ObjectId& id) const {
  std::vector<AttributeEntry> out;
  auto obj_it = attrs_.find(id);
  if (obj_it == attrs_.end()) return out;
  for (const auto& [name, entry] : obj_it->second) out.push_back(entry);
  return out;
}

size_t AttributeStore::size() const {
  size_t n = 0;
  for (const auto& [id, m] : attrs_) n += m.size();
  return n;
}

}  // namespace papyrus::oct
