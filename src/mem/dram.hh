/**
 * @file
 * DDR4-style main-memory timing model (the Ramulator substitute).
 *
 * Table 1 of the paper: DDR4_2400R, 1 rank, 2 channels, 4 bank
 * groups and 4 banks per group per channel, tRP-tCL-tRCD = 16-16-16
 * (DRAM cycles). Core runs at 3.2 GHz, DDR4-2400 I/O at 1.2 GHz, so
 * one DRAM cycle is ~2.67 core cycles; timing parameters below are
 * expressed in core cycles using that ratio.
 *
 * The model keeps per-bank open rows and busy-until times and a
 * per-channel data bus, approximating FR-FCFS through row-hit
 * latency plus bank-level parallelism. Row hits cost tCL; closed
 * banks tRCD+tCL; conflicts tRP+tRCD+tCL.
 */

#ifndef CDFSIM_MEM_DRAM_HH
#define CDFSIM_MEM_DRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace cdfsim::mem
{

/** DDR timing and geometry, in core cycles. */
struct DramConfig
{
    unsigned channels = 2;
    unsigned bankGroups = 4;
    unsigned banksPerGroup = 4;
    unsigned rowBytes = 8192;           //!< 8KB row buffer
    unsigned tRp = 43;                  //!< 16 DRAM cycles @ 2.67x
    unsigned tCl = 43;
    unsigned tRcd = 43;
    unsigned tBurst = 11;               //!< BL8 data transfer
    unsigned controllerLatency = 10;    //!< queue + PHY overhead

    template <typename Ar>
    void
    fields(Ar &ar)
    {
        ar(named("channels", channels), named("bank_groups", bankGroups),
           named("banks_per_group", banksPerGroup),
           named("row_bytes", rowBytes), named("t_rp", tRp),
           named("t_cl", tCl), named("t_rcd", tRcd), named("t_burst", tBurst),
           named("controller_latency", controllerLatency));
    }

    SIM_SNAPSHOT_FIELDS(9);
};

/** The memory request's service summary. */
struct DramAccessOutcome
{
    Cycle ready = 0;
    bool rowHit = false;
    bool rowConflict = false;           //!< needed a precharge first
};

/** Main memory. */
class DramModel
{
  public:
    DramModel(const DramConfig &config, StatRegistry &stats,
              const std::string &name = "dram");

    /**
     * Service a line read or write beginning no earlier than @p now.
     * Returns the completion cycle of the data transfer.
     */
    DramAccessOutcome access(Addr lineAddr, bool isWrite, Cycle now);

    /** Total bytes moved on the DRAM bus (reads + writes). */
    std::uint64_t totalBytes() const { return bytesRead_ + bytesWritten_; }

    const DramConfig &config() const { return config_; }

    /** Snapshot per-bank/bus timing state (geometry is config). */
    template <typename Ar>
    void
    fields(Ar &ar)
    {
        for (Channel &ch : channels_) {
            for (Bank &bank : ch.banks)
                ar(bank.open, bank.openRow, bank.busyUntil);
            ar(ch.busUntil);
        }
    }

  private:
    struct Bank
    {
        bool open = false;
        Addr openRow = 0;
        Cycle busyUntil = 0;
    };

    struct Channel
    {
        std::vector<Bank> banks;
        Cycle busUntil = 0;
    };

    unsigned channelOf(Addr line) const;
    unsigned bankOf(Addr line) const;
    Addr rowOf(Addr line) const;

    SIM_SNAPSHOT_FIELDS(9);

    DramConfig config_;
    std::vector<Channel> channels_;

    std::uint64_t &reads_;
    std::uint64_t &writes_;
    std::uint64_t &rowHits_;
    std::uint64_t &rowMisses_;
    std::uint64_t &rowConflicts_;
    std::uint64_t &bytesRead_;
    std::uint64_t &bytesWritten_;
};

} // namespace cdfsim::mem

#endif // CDFSIM_MEM_DRAM_HH
