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

// EncodeSample serializes sample i of d into a fresh record buffer.
func EncodeSample(d *Dataset, i int) ([]byte, error) {
	size, err := RecordSize(d.Spec)
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= d.Len() {
		return nil, fmt.Errorf("data: sample index %d out of range [0,%d)", i, d.Len())
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint16(buf[0:2], uint16(d.Labels[i]))
	binary.LittleEndian.PutUint32(buf[2:6], uint32(d.X.Cols))
	row := d.X.Row(i)
	for j, v := range row {
		binary.LittleEndian.PutUint32(buf[recordHeader+4*j:], math.Float32bits(v))
	}
	binary.LittleEndian.PutUint32(buf[crcOff:crcOff+4], recordCRC(buf))
	return buf, nil
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

// DecodeSample parses a record buffer into a label and feature vector,
// verifying the record CRC first: a corrupted record fails with an
// error wrapping faults.ErrCorruptRecord rather than silently decoding
// flipped bits into training data.
func DecodeSample(buf []byte) (label int, features []float32, err error) {
	if err := VerifyRecord(buf); err != nil {
		return 0, nil, err
	}
	features = make([]float32, binary.LittleEndian.Uint32(buf[2:6]))
	label, err = DecodeRecordInto(buf, features)
	if err != nil {
		return 0, nil, err
	}
	return label, features, nil
}

// DecodeRecordInto parses a record's label and features into the given
// slice without allocating: features must have exactly the record's
// feature count. The CRC is not checked — pair with VerifyRecord or
// VerifyImage when integrity matters; streaming scans verify a whole
// chunk at once and then decode records from it with this.
func DecodeRecordInto(buf []byte, features []float32) (int, error) {
	if len(buf) < recordHeader {
		return 0, fmt.Errorf("data: record too short (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf[2:6]))
	if n != len(features) {
		return 0, fmt.Errorf("data: record holds %d features, caller expects %d", n, len(features))
	}
	if len(buf) < recordHeader+4*n {
		return 0, fmt.Errorf("data: record truncated: %d features need %d bytes, have %d",
			n, recordHeader+4*n, len(buf))
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
		rec, err := EncodeSample(d, i)
		if err != nil {
			return nil, err
		}
		copy(out[int64(i)*size:], rec)
	}
	return out, nil
}

// Decode parses a byte image produced by Encode back into a Dataset.
// spec must match the encoding spec.
func Decode(spec Spec, img []byte) (*Dataset, error) {
	size, err := RecordSize(spec)
	if err != nil {
		return nil, err
	}
	if int64(len(img))%size != 0 {
		return nil, fmt.Errorf("data: image length %d not a multiple of record size %d", len(img), size)
	}
	n := int(int64(len(img)) / size)
	d := &Dataset{Spec: spec, Labels: make([]int, n)}
	for i := 0; i < n; i++ {
		label, feats, err := DecodeSample(img[int64(i)*size : int64(i+1)*size])
		if err != nil {
			return nil, fmt.Errorf("data: sample %d: %w", i, err)
		}
		if d.X == nil {
			d.X = tensor.NewMatrix(n, len(feats))
		}
		copy(d.X.Row(i), feats)
		d.Labels[i] = label
	}
	if d.X == nil {
		d.X = tensor.NewMatrix(0, spec.FeatureDim)
	}
	return d, nil
}
