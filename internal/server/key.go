package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	fpspy "repro"
	"repro/internal/jobs"
)

// CacheKey is the content address of a submission: BlobKey of the
// clone's encoding, the key the daemon computes for its submitted bytes.
func CacheKey(j *jobs.Job, cfg fpspy.Config) string {
	blob, _ := j.Encode()        // never fails
	key, _ := BlobKey(blob, cfg) // Encode wrote a header
	return key
}

// BlobKey is the content address of an encoded clone replayed under
// cfg: a SHA-256 over the clone's body (jobs.Body: program image, launch
// environment, memory request) and then every Config field. A clone has
// one encoding, so equal content is equal bytes. The names are in the
// unhashed header, so the same binary submitted under two names hits
// one cache entry. BlobKey reads only the header; Decode checks the rest.
func BlobKey(blob []byte, cfg fpspy.Config) (string, error) {
	body, err := jobs.Body(blob)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(body)                   //nolint:errcheck // hash.Hash never errors
	h.Write(appendConfig(nil, cfg)) //nolint:errcheck // hash.Hash never errors
	return hex.EncodeToString(h.Sum(nil)), nil
}

// appendConfig renders every Config field in declaration order, eight
// bytes each. A new Config field that affects execution must be added
// here; TestCacheKeyDeterministicAndSensitive pins the field set so the
// omission is caught.
func appendConfig(b []byte, c fpspy.Config) []byte {
	for _, v := range [...]uint64{
		uint64(c.Mode), b2u(c.Disable), b2u(c.Aggressive), uint64(c.ExceptList),
		c.MaxCount, c.SampleEvery, c.SampleOnUS, c.SampleOffUS,
		b2u(c.Poisson), b2u(c.VirtualTimer), b2u(c.Breakpoints),
		c.StormFaults, c.StormCycles, c.ShadowPrec,
	} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
