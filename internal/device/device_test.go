package device

import (
	"math"
	"testing"
)

func TestReadWriteTime(t *testing.T) {
	d := Device{Name: "x", ReadBW: 1e9, WriteBW: 0.5e9, Latency: 0.001}
	if got := d.ReadTime(1e9); math.Abs(got-1.001) > 1e-9 {
		t.Fatalf("ReadTime=%v want 1.001", got)
	}
	if got := d.WriteTime(1e9); math.Abs(got-2.001) > 1e-9 {
		t.Fatalf("WriteTime=%v want 2.001", got)
	}
	if d.ReadTime(0) != 0 || d.WriteTime(-5) != 0 {
		t.Fatal("zero/negative sizes must cost nothing")
	}
}

func TestStorageCost(t *testing.T) {
	d := Device{Name: "x", ReadBW: 1, WriteBW: 1, CostPerGBMonth: 3}
	// 1 GB for a month = $3.
	if got := d.StorageCost(1e9, 30*24); math.Abs(got-3) > 1e-9 {
		t.Fatalf("StorageCost=%v want 3", got)
	}
	// Half a month = $1.5.
	if got := d.StorageCost(1e9, 15*24); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("StorageCost=%v want 1.5", got)
	}
}

func TestTiersValidAndOrdered(t *testing.T) {
	tiers := Tiers()
	if len(tiers) < 5 {
		t.Fatalf("want ≥5 tiers, got %d", len(tiers))
	}
	for i, d := range tiers {
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			// Faster tiers cost more; the inventory is ordered by speed.
			if tiers[i-1].ReadBW < d.ReadBW {
				t.Fatalf("tiers not speed-ordered at %d", i)
			}
			if tiers[i-1].CostPerGBMonth < d.CostPerGBMonth {
				t.Fatalf("faster tier %s should not be cheaper than %s", tiers[i-1].Name, d.Name)
			}
		}
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("nvme-ssd")
	if err != nil || d.Name != "nvme-ssd" {
		t.Fatalf("ByName failed: %v", err)
	}
	if _, err := ByName("floppy"); err == nil {
		t.Fatal("unknown tier must error")
	}
}

func TestValidateRejectsBadDevices(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := map[string]Device{
		"no name":          {},
		"zero read bw":     {Name: "x", ReadBW: 0, WriteBW: 1},
		"negative latency": {Name: "x", ReadBW: 1, WriteBW: 1, Latency: -1},
		"negative cost":    {Name: "x", ReadBW: 1, WriteBW: 1, CostPerGBMonth: -1},
		"NaN read bw":      {Name: "x", ReadBW: nan, WriteBW: 1},
		"NaN write bw":     {Name: "x", ReadBW: 1, WriteBW: nan},
		"+Inf read bw":     {Name: "x", ReadBW: inf, WriteBW: 1},
		"+Inf write bw":    {Name: "x", ReadBW: 1, WriteBW: inf},
		"-Inf read bw":     {Name: "x", ReadBW: -inf, WriteBW: 1},
		"NaN latency":      {Name: "x", ReadBW: 1, WriteBW: 1, Latency: nan},
		"+Inf latency":     {Name: "x", ReadBW: 1, WriteBW: 1, Latency: inf},
		"-Inf latency":     {Name: "x", ReadBW: 1, WriteBW: 1, Latency: -inf},
	}
	for name, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", name, d)
		}
	}
}
