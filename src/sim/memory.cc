#include "sim/memory.h"

#include "support/logging.h"

namespace mips::sim {

PhysMemory::PhysMemory(uint32_t size_words)
    : size_words_(size_words),
      pages_(size_words / kPageWords + (size_words % kPageWords != 0),
             zeroPage())
{
}

uint32_t *
PhysMemory::allocatePage()
{
    storage_.push_back(std::make_unique<uint32_t[]>(kPageWords));
    return storage_.back().get();
}

void
PhysMemory::outOfRange(const char *op, uint32_t addr) const
{
    support::panic("PhysMemory::%s out of range: 0x%x", op, addr);
}

uint32_t
PhysMemory::readMmio(uint32_t addr)
{
    switch (static_cast<MmioReg>(addr - kMmioBase)) {
      case MmioReg::CONSOLE_STATUS:
        return 1;
      case MmioReg::INT_SOURCE:
        return highestPendingDevice();
      case MmioReg::CYCLES_LO:
        return static_cast<uint32_t>(cycle_source_ ? *cycle_source_ : 0);
      default:
        return 0;
    }
}

void
PhysMemory::writeMmio(uint32_t addr, uint32_t value)
{
    switch (static_cast<MmioReg>(addr - kMmioBase)) {
      case MmioReg::CONSOLE_OUT:
        console_.push_back(static_cast<char>(value & 0xff));
        break;
      case MmioReg::INT_ACK:
        if (value < 32)
            pending_devices_ &= ~(1u << value);
        break;
      case MmioReg::MAP_SVA:
        map_sva_ = value;
        break;
      case MmioReg::MAP_INSTALL:
        if (map_hook_)
            map_hook_(true, map_sva_, value);
        break;
      case MmioReg::MAP_EVICT:
        if (map_hook_)
            map_hook_(false, map_sva_, value);
        break;
      default:
        break;
    }
}

uint32_t
PhysMemory::peek(uint32_t addr) const
{
    if (!valid(addr))
        support::panic("PhysMemory::peek out of range: 0x%x", addr);
    return ram(addr);
}

void
PhysMemory::poke(uint32_t addr, uint32_t value)
{
    if (!valid(addr))
        support::panic("PhysMemory::poke out of range: 0x%x", addr);
    ramWrite(addr, value);
}

void
PhysMemory::loadImage(uint32_t base, const std::vector<uint32_t> &image)
{
    for (size_t i = 0; i < image.size(); ++i)
        poke(base + static_cast<uint32_t>(i), image[i]);
}

void
PhysMemory::raiseDevice(uint32_t device_id)
{
    if (device_id == 0 || device_id >= 32)
        support::panic("raiseDevice: bad device id %u", device_id);
    pending_devices_ |= 1u << device_id;
}

uint32_t
PhysMemory::highestPendingDevice() const
{
    for (uint32_t id = 1; id < 32; ++id)
        if (pending_devices_ & (1u << id))
            return id;
    return 0;
}

} // namespace mips::sim
