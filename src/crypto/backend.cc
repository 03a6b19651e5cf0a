#include "crypto/backend.h"

#include <cstdlib>

namespace fresque {
namespace crypto {

bool ForceSoftCrypto() {
  const char* env = std::getenv("FRESQUE_FORCE_SOFT_CRYPTO");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

}  // namespace crypto
}  // namespace fresque
