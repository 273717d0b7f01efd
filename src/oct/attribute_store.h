#ifndef PAPYRUS_OCT_ATTRIBUTE_STORE_H_
#define PAPYRUS_OCT_ATTRIBUTE_STORE_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "oct/object_id.h"

namespace papyrus::oct {

/// How an attribute value comes into existence (§6.4.1).
enum class AttributeMode {
  kStored,     // set directly (administrative / inherited values)
  kLazy,       // computed on demand by the compute tool
  kImmediate,  // computed eagerly when the object is created
};

/// One attribute of one object version: name, value, and the tool that can
/// (re)compute it (§4.3.6: "An object's attribute consists of three parts:
/// attribute name, attribute value, and attribute computation tool").
struct AttributeEntry {
  std::string name;
  std::string value;         // Tcl-style: everything is a string
  std::string compute_tool;  // "" for stored attributes
  AttributeMode mode = AttributeMode::kStored;
  bool computed = false;     // value is valid (cache state)
};

/// The central attribute database associated with a thread workspace
/// (§4.3.6). The task manager caches computed attribute values here; the
/// metadata inference engine (src/meta) attaches type-specific attribute
/// sets and invalidates entries when incremental re-evaluation runs.
class AttributeStore {
 public:
  /// Defines or overwrites an attribute with a stored value.
  void Set(const ObjectId& id, const std::string& attr,
           const std::string& value);

  /// Attaches an attribute slot without a value; `compute_tool` will be run
  /// to fill it (lazy) or has been run already (immediate).
  void Attach(const ObjectId& id, const std::string& attr,
              const std::string& compute_tool, AttributeMode mode);

  /// Records a computed value for an attached attribute.
  Status SetComputed(const ObjectId& id, const std::string& attr,
                     const std::string& value);

  /// Marks an attribute's cached value invalid (incremental re-evaluation).
  Status Invalidate(const ObjectId& id, const std::string& attr);

  /// Returns the entry, or NotFound when never attached/set.
  Result<AttributeEntry> Get(const ObjectId& id,
                             const std::string& attr) const;

  /// Returns a valid value or NotFound when absent / not yet computed.
  Result<std::string> GetValue(const ObjectId& id,
                               const std::string& attr) const;
  /// The valid value, or null when absent / not yet computed: GetValue
  /// without the copy and without the error on a miss.
  const std::string* FindValue(const ObjectId& id,
                               const std::string& attr) const;

  bool Has(const ObjectId& id, const std::string& attr) const;

  /// All attributes of one object, sorted by name.
  std::vector<AttributeEntry> List(const ObjectId& id) const;

  /// Number of (object, attribute) pairs stored.
  size_t size() const;

 private:
  std::unordered_map<ObjectId, std::map<std::string, AttributeEntry>>
      attrs_;
};

}  // namespace papyrus::oct

#endif  // PAPYRUS_OCT_ATTRIBUTE_STORE_H_
