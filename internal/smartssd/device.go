package smartssd

import (
	"fmt"
	"time"

	"nessa/internal/faults"
	"nessa/internal/simtime"
	"nessa/internal/storage"
)

// Spec holds the fixed hardware parameters of the SmartSSD card
// (paper §2.2, §3.2.3): 4 GB of FPGA-attached DRAM and 4.32 MB of FPGA
// on-chip memory.
type Spec struct {
	DRAMBytes   int64
	OnChipBytes int64
}

// DefaultSpec returns the paper's SmartSSD parameters.
func DefaultSpec() Spec {
	return Spec{
		DRAMBytes:   4 * 1024 * 1024 * 1024,
		OnChipBytes: 4_320_000, // 4.32 MB of FPGA on-chip memory
	}
}

// Device is a SmartSSD: an SSD plus links and capacity constraints.
// Every transfer advances the shared clock and is charged to the
// accountant, so experiments can report data movement and time by path.
type Device struct {
	Spec  Spec
	SSD   *storage.SSD
	P2P   LinkModel
	Host  LinkModel
	GPU   LinkModel
	Clock *simtime.Clock
	Acct  *simtime.Accountant

	// ID names the device to the fault injector's whole-device-loss
	// state, which is sticky per ID. Clusters assign unique IDs;
	// standalone devices default to 0.
	ID int
	// Scans counts completed cluster scans this device served — the
	// trigger for scripted DeviceKill{AfterScans: n} schedules.
	Scans int64

	// inj, when non-nil, perturbs device operations with the
	// configured fault schedule: the P2P link consults it for link
	// drops, and the flash array holds the same injector for
	// NAND-level faults.
	inj *faults.Injector
}

// New assembles a SmartSSD with the default drive, links, and spec.
func New() (*Device, error) {
	ssd, err := storage.New(storage.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &Device{
		Spec:  DefaultSpec(),
		SSD:   ssd,
		P2P:   P2PLink(),
		Host:  HostLink(),
		GPU:   GPULink(),
		Clock: simtime.NewClock(),
		Acct:  simtime.NewAccountant(),
	}, nil
}

// SetInjector attaches (or, with nil, detaches) a fault injector to
// both the device links and the underlying flash array.
func (d *Device) SetInjector(in *faults.Injector) {
	d.inj = in
	d.SSD.SetInjector(in)
}

// lostCheck consults the injector's whole-device fault state before an
// operation on the given path. A lost device still charges the path's
// command setup — the host only learns of the loss when the command
// times out — and then fails with a wrapped faults.ErrDeviceLost.
func (d *Device) lostCheck(link LinkModel, bucket, op, name string) error {
	if !d.inj.DeviceLoss(d.ID, d.Scans) {
		return nil
	}
	d.Clock.Advance(link.CommandLatency)
	d.Acct.AddTime(bucket, link.CommandLatency)
	return fmt.Errorf("smartssd: %s of %q on device %d: %w", op, name, d.ID, faults.ErrDeviceLost)
}

// StoreDataset writes a dataset image to the drive under name. The
// drive keeps img (see storage.SSD.Write): do not modify it afterwards.
func (d *Device) StoreDataset(name string, img []byte) error {
	if err := d.lostCheck(d.Host, "ssd.error", "write", name); err != nil {
		return err
	}
	dur, err := d.SSD.Write(name, img)
	if err != nil {
		return err
	}
	d.Clock.Advance(dur)
	d.Acct.AddTime("ssd.write", dur)
	d.Acct.AddBytes("ssd.write", int64(len(img)))
	return nil
}

// StoreVirtualDataset lays out a virtual dataset object of size bytes
// under name: reads synthesize content through fill (see
// storage.FillFunc) so streaming-scale datasets — far beyond host or
// device DRAM — exist on the drive without being materialized
// anywhere. No clock time is charged; the object models data ingested
// before the experiment begins.
func (d *Device) StoreVirtualDataset(name string, size int64, fill storage.FillFunc) error {
	return d.SSD.PutVirtual(name, size, fill)
}

// SendToGPU charges the transfer of length bytes (the selected subset)
// from the FPGA to the GPU over the host interconnect.
func (d *Device) SendToGPU(length int64, commands int) time.Duration {
	dur := d.GPU.Duration(length, commands)
	d.Clock.Advance(dur)
	d.Acct.AddTime("gpu.send", dur)
	d.Acct.AddBytes("gpu.send", length)
	return dur
}

// ReceiveFeedback charges the quantized-weight + loss feedback transfer
// from the GPU back to the FPGA (paper §3.2.1).
func (d *Device) ReceiveFeedback(length int64) time.Duration {
	dur := d.GPU.Duration(length, 1)
	d.Clock.Advance(dur)
	d.Acct.AddTime("gpu.feedback", dur)
	d.Acct.AddBytes("gpu.feedback", length)
	return dur
}

// FitsOnChip reports whether a working set of the given size fits the
// FPGA's on-chip memory — the constraint that motivates dataset
// partitioning (paper §3.2.3).
func (d *Device) FitsOnChip(bytes int64) bool { return bytes <= d.Spec.OnChipBytes }

// SpeedupP2PvsHost reports the theoretical peak-bandwidth advantage of
// the P2P path over the host path: 3.0/1.4 ≈ 2.14× (paper §4.4).
func (d *Device) SpeedupP2PvsHost() float64 { return d.P2P.PeakBW / d.Host.PeakBW }
