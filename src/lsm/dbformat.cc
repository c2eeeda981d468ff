#include "lsm/dbformat.h"

#include <cinttypes>
#include <cstdio>

namespace lsmio::lsm {

namespace {
std::string MakeFileName(const std::string& dbname, uint64_t number,
                         const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "/%06" PRIu64 ".%s", number, suffix);
  return dbname + buf;
}
}  // namespace

std::string TableFileName(const std::string& dbname, uint64_t number) {
  return MakeFileName(dbname, number, "sst");
}

std::string LogFileName(const std::string& dbname, uint64_t number) {
  return MakeFileName(dbname, number, "log");
}

std::string BlobFileName(const std::string& dbname, uint64_t number) {
  return MakeFileName(dbname, number, "blob");
}

std::string ManifestFileName(const std::string& dbname, uint64_t number) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "/MANIFEST-%06" PRIu64, number);
  return dbname + buf;
}

std::string CurrentFileName(const std::string& dbname) { return dbname + "/CURRENT"; }

bool ParseFileName(const std::string& name, uint64_t* number, FileType* type) {
  if (name == "CURRENT") {
    *number = 0;
    *type = FileType::kCurrentFile;
    return true;
  }
  if (name == "LOCK") {
    *number = 0;
    *type = FileType::kLockFile;
    return true;
  }
  if (name.rfind("MANIFEST-", 0) == 0) {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(name.c_str() + 9, &end, 10);
    if (end == nullptr || *end != '\0') return false;
    *number = n;
    *type = FileType::kManifestFile;
    return true;
  }
  char* end = nullptr;
  const unsigned long long n = std::strtoull(name.c_str(), &end, 10);
  if (end == name.c_str()) return false;
  const std::string suffix(end);
  if (suffix == ".sst") *type = FileType::kTableFile;
  else if (suffix == ".log") *type = FileType::kLogFile;
  else if (suffix == ".blob") *type = FileType::kBlobFile;
  else {
    *type = FileType::kUnknown;
    return false;
  }
  *number = n;
  return true;
}

}  // namespace lsmio::lsm
