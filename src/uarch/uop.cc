#include "uarch/uop.hh"

namespace helios
{

const Uop freshUop{};

} // namespace helios
