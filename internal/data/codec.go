package data

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"nessa/internal/faults"
	"nessa/internal/tensor"
)

// Record layout on the simulated SSD. Every sample occupies exactly
// Spec.BytesPerImage bytes so that storage-side byte accounting matches
// the paper's per-image sizes (§4.4: CIFAR-10 images are 0.003 MB,
// ImageNet-100 images 0.126 MB). The payload is:
//
//	[0:2]   uint16 label (little endian)
//	[2:6]   uint32 feature count
//	[6:10]  uint32 CRC32C of the whole record with this field zeroed
//	[10:..] float32 features
//	[..:]   zero padding up to BytesPerImage
//
// The CRC covers the entire record — header, features, and padding —
// so a bit flip anywhere in the stored bytes is detected (DESIGN.md
// §4.6); single-bit NAND errors are always caught by CRC32C. RecordSize
// validates that the features fit the record.
const (
	recordHeader = 10
	crcOff       = 6
)

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64), the checksum real storage stacks use for end-to-end
// data integrity.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recordCRC computes the record checksum: CRC32C over buf with the
// 4-byte CRC field treated as zero.
func recordCRC(buf []byte) uint32 {
	crc := crc32.Update(0, castagnoli, buf[:crcOff])
	crc = crc32.Update(crc, castagnoli, crcFieldZeros[:])
	return crc32.Update(crc, castagnoli, buf[crcOff+4:])
}

// crcFieldZeros stands in for the CRC field. Package-level and never
// written: a local array escapes through crc32.Update and costs one
// heap allocation per verified record.
var crcFieldZeros [4]byte

// RecordSize reports the per-sample on-disk record size for spec and
// validates that the simulated feature payload fits within it.
func RecordSize(spec Spec) (int64, error) {
	need := int64(recordHeader + 4*spec.FeatureDim)
	if spec.BytesPerImage < need {
		return 0, fmt.Errorf("data: %s record size %d cannot hold %d feature bytes",
			spec.Name, spec.BytesPerImage, need)
	}
	return spec.BytesPerImage, nil
}

// putRecord is the one writer of the layout above. rec is a whole
// record and may hold stale bytes.
func putRecord(rec []byte, label int, features []float32) {
	binary.LittleEndian.PutUint16(rec[0:2], uint16(label))
	binary.LittleEndian.PutUint32(rec[2:6], uint32(len(features)))
	for j, v := range features {
		binary.LittleEndian.PutUint32(rec[recordHeader+4*j:], math.Float32bits(v))
	}
	clear(rec[recordHeader+4*len(features):])
	binary.LittleEndian.PutUint32(rec[crcOff:crcOff+4], recordCRC(rec))
}

// VerifyRecord checks a record's CRC32C without decoding it. A mismatch
// returns an error wrapping faults.ErrCorruptRecord.
func VerifyRecord(buf []byte) error {
	if len(buf) < recordHeader {
		return fmt.Errorf("data: record too short (%d bytes)", len(buf))
	}
	stored := binary.LittleEndian.Uint32(buf[crcOff : crcOff+4])
	if got := recordCRC(buf); got != stored {
		return fmt.Errorf("data: stored CRC %08x, computed %08x: %w",
			stored, got, faults.ErrCorruptRecord)
	}
	return nil
}

// VerifyImage CRC-checks every record of a contiguous record image —
// the integrity pass the controller runs over each near-storage scan.
// It returns nil if every record is clean, or an error wrapping
// faults.ErrCorruptRecord identifying the first corrupt record.
func VerifyImage(img []byte, recordSize int64) error {
	if recordSize <= 0 {
		return fmt.Errorf("data: record size %d must be positive", recordSize)
	}
	if int64(len(img))%recordSize != 0 {
		return fmt.Errorf("data: image length %d not a multiple of record size %d", len(img), recordSize)
	}
	for off := int64(0); off < int64(len(img)); off += recordSize {
		if err := VerifyRecord(img[off : off+recordSize]); err != nil {
			return fmt.Errorf("data: record %d: %w", off/recordSize, err)
		}
	}
	return nil
}

// featureCount reads a record's feature count and checks that the
// record can hold that many before any caller sizes a slice from it
// (a valid CRC proves nothing: it is a checksum, not a MAC).
func featureCount(buf []byte) (int, error) {
	if len(buf) < recordHeader {
		return 0, fmt.Errorf("data: record too short (%d bytes)", len(buf))
	}
	n := int64(binary.LittleEndian.Uint32(buf[2:6]))
	if need := recordHeader + 4*n; int64(len(buf)) < need {
		return 0, fmt.Errorf("data: record truncated: %d features need %d bytes, have %d", n, need, len(buf))
	}
	return int(n), nil
}

// DecodeRecordInto parses a record's label and features into the given
// slice without allocating: features must have exactly the record's
// feature count. The CRC is not checked — pair with VerifyRecord or
// VerifyImage when integrity matters; streaming scans verify a whole
// chunk at once and then decode records from it with this.
func DecodeRecordInto(buf []byte, features []float32) (int, error) {
	n, err := featureCount(buf)
	if err != nil {
		return 0, err
	}
	if n != len(features) {
		return 0, fmt.Errorf("data: record holds %d features, caller expects %d", n, len(features))
	}
	for j := range features {
		features[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[recordHeader+4*j:]))
	}
	return int(binary.LittleEndian.Uint16(buf[0:2])), nil
}

// Encode serializes the whole dataset into one contiguous byte image
// (sample i at offset i*BytesPerImage), the layout written to the
// simulated SSD.
func Encode(d *Dataset) ([]byte, error) {
	size, err := RecordSize(d.Spec)
	if err != nil {
		return nil, err
	}
	out := make([]byte, size*int64(d.Len()))
	for i := 0; i < d.Len(); i++ {
		putRecord(out[int64(i)*size:int64(i+1)*size], d.Labels[i], d.X.Row(i))
	}
	return out, nil
}

// Decode parses a byte image produced by Encode back into a Dataset.
// spec must match the encoding spec: a record with a bad CRC, a feature
// count other than spec.FeatureDim or a label ≥ spec.Classes is an error.
func Decode(spec Spec, img []byte) (*Dataset, error) {
	size, err := RecordSize(spec)
	if err != nil {
		return nil, err
	}
	if int64(len(img))%size != 0 {
		return nil, fmt.Errorf("data: image length %d not a multiple of record size %d", len(img), size)
	}
	n := int(int64(len(img)) / size)
	d := &Dataset{Spec: spec, Labels: make([]int, n), X: tensor.NewMatrix(n, spec.FeatureDim)}
	for i := 0; i < n; i++ {
		rec := img[int64(i)*size : int64(i+1)*size]
		err := VerifyRecord(rec)
		if err == nil {
			d.Labels[i], err = DecodeRecordInto(rec, d.X.Row(i))
		}
		if err == nil && d.Labels[i] >= spec.Classes {
			err = fmt.Errorf("data: label %d, spec has %d classes", d.Labels[i], spec.Classes)
		}
		if err != nil {
			return nil, fmt.Errorf("data: sample %d: %w", i, err)
		}
	}
	return d, nil
}
