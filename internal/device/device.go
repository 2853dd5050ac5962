// Package device models the storage tiers a KV cache can live on: GPU
// memory, CPU RAM, NVMe SSD, slower disks and object storage. Each device
// has a read/write bandwidth, a per-operation latency and a capacity
// cost; the loading controller (§5.1) uses these to decide where KV caches
// should be stored and how much recompute a device's loading delay can
// hide.
//
// Bandwidth figures follow the paper's testbed where given (NVMe measured
// at 4.8 GB/s, a "slower disk" at 4 Gbps in Figure 17, a 1 GB/s SSD in the
// Figure 10 discussion); costs are representative cloud prices, only their
// ordering matters for the controller's choices.
package device

import (
	"fmt"
	"math"
)

// Device describes one storage tier.
type Device struct {
	// Name identifies the device in tables and configs.
	Name string
	// ReadBW and WriteBW are sustained bandwidths in bytes/second.
	ReadBW, WriteBW float64
	// Latency is the fixed per-operation latency in seconds.
	Latency float64
	// CostPerGBMonth is the storage price in $/GB/month.
	CostPerGBMonth float64
}

// ReadTime returns the seconds needed to read n bytes.
func (d Device) ReadTime(n int64) float64 {
	if n <= 0 {
		return 0
	}
	return d.Latency + float64(n)/d.ReadBW
}

// WriteTime returns the seconds needed to write n bytes.
func (d Device) WriteTime(n int64) float64 {
	if n <= 0 {
		return 0
	}
	return d.Latency + float64(n)/d.WriteBW
}

// StorageCost returns the dollar cost of holding n bytes for hours h.
func (d Device) StorageCost(n int64, hours float64) float64 {
	const hoursPerMonth = 30 * 24
	gb := float64(n) / 1e9
	return gb * d.CostPerGBMonth * hours / hoursPerMonth
}

// Validate reports the first structural problem. Bandwidths must be
// positive and finite and latency non-negative and finite; NaN fails
// both. A zero, NaN or infinite figure would make ReadTime or WriteTime
// infinite or NaN.
func (d Device) Validate() error {
	switch {
	case d.Name == "":
		return fmt.Errorf("device: empty name")
	case !(d.ReadBW > 0) || !(d.WriteBW > 0) || math.IsInf(d.ReadBW, 1) || math.IsInf(d.WriteBW, 1):
		return fmt.Errorf("device %q: bandwidths must be positive and finite", d.Name)
	case !(d.Latency >= 0) || math.IsInf(d.Latency, 1):
		return fmt.Errorf("device %q: latency must be non-negative and finite", d.Name)
	case d.CostPerGBMonth < 0:
		return fmt.Errorf("device %q: negative cost", d.Name)
	}
	return nil
}

// The standard tier inventory used across experiments.
var (
	// GPUHBM is on-accelerator memory: KV already resident, no transfer.
	GPUHBM = Device{Name: "gpu-hbm", ReadBW: 1.5e12, WriteBW: 1.5e12, Latency: 1e-6, CostPerGBMonth: 30}
	// CPURAM is host memory reached over PCIe.
	CPURAM = Device{Name: "cpu-ram", ReadBW: 25e9, WriteBW: 25e9, Latency: 10e-6, CostPerGBMonth: 4}
	// NVMeSSD matches the paper's measured 4.8 GB/s drive.
	NVMeSSD = Device{Name: "nvme-ssd", ReadBW: 4.8e9, WriteBW: 2.0e9, Latency: 100e-6, CostPerGBMonth: 0.25}
	// SlowSSD is the 1 GB/s device of the Figure 10 walkthrough.
	SlowSSD = Device{Name: "slow-ssd", ReadBW: 1.0e9, WriteBW: 0.8e9, Latency: 150e-6, CostPerGBMonth: 0.12}
	// SlowDisk is Figure 17's 4 Gbps (0.5 GB/s) tier.
	SlowDisk = Device{Name: "slow-disk", ReadBW: 0.5e9, WriteBW: 0.4e9, Latency: 2e-3, CostPerGBMonth: 0.04}
	// ObjectStore is a remote blob store.
	ObjectStore = Device{Name: "object-store", ReadBW: 0.2e9, WriteBW: 0.1e9, Latency: 30e-3, CostPerGBMonth: 0.02}
)

// Tiers lists the inventory from fastest to cheapest.
func Tiers() []Device {
	return []Device{GPUHBM, CPURAM, NVMeSSD, SlowSSD, SlowDisk, ObjectStore}
}

// ByName returns the named tier from Tiers.
func ByName(name string) (Device, error) {
	for _, d := range Tiers() {
		if d.Name == name {
			return d, nil
		}
	}
	return Device{}, fmt.Errorf("device: unknown tier %q", name)
}
