package swcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// XTS implements the AES-XTS tweakable block-cipher mode of IEEE 1619 /
// NIST SP 800-38E, including ciphertext stealing for data units that are
// not a multiple of 16 bytes. Intel TME-MK — the memory-encryption engine
// protecting a TD's private DRAM — uses AES-XTS precisely because it is
// counter-less: no per-line metadata has to be stored, which is what lets
// TME-MK cover the entire physical address space.
type XTS struct {
	data  cipher.Block // K1: encrypts the data units
	tweak cipher.Block // K2: encrypts the tweak
}

// NewXTS creates an AES-XTS cipher from a double-length key (32 bytes for
// XTS-AES-128, 64 bytes for XTS-AES-256): the first half is the data key,
// the second half the tweak key.
func NewXTS(key []byte) (*XTS, error) {
	if len(key) != 32 && len(key) != 64 {
		return nil, fmt.Errorf("swcrypto: XTS key must be 32 or 64 bytes, got %d", len(key))
	}
	half := len(key) / 2
	data, err := aes.NewCipher(key[:half])
	if err != nil {
		return nil, err
	}
	tweak, err := aes.NewCipher(key[half:])
	if err != nil {
		return nil, err
	}
	return &XTS{data: data, tweak: tweak}, nil
}

// initialTweak computes T = E_K2(sectorNum as 128-bit little-endian).
func (x *XTS) initialTweak(sectorNum uint64) [16]byte {
	var t [16]byte
	binary.LittleEndian.PutUint64(t[:8], sectorNum)
	x.tweak.Encrypt(t[:], t[:])
	return t
}

// mulAlpha multiplies the tweak by the primitive element alpha (i.e. x) in
// GF(2^128) using XTS's little-endian convention.
func mulAlpha(t *[16]byte) {
	var carry byte
	for i := 0; i < 16; i++ {
		next := t[i] >> 7
		t[i] = t[i]<<1 | carry
		carry = next
	}
	if carry != 0 {
		t[0] ^= 0x87
	}
}

// Encrypt encrypts a data unit (sector) identified by sectorNum. dst and src
// must have equal length >= 16 bytes; dst may alias src.
func (x *XTS) Encrypt(dst, src []byte, sectorNum uint64) error {
	return x.process(dst, src, sectorNum, true)
}

// Decrypt decrypts a data unit encrypted by Encrypt.
func (x *XTS) Decrypt(dst, src []byte, sectorNum uint64) error {
	return x.process(dst, src, sectorNum, false)
}

func (x *XTS) process(dst, src []byte, sectorNum uint64, encrypt bool) error {
	if len(dst) != len(src) {
		return fmt.Errorf("swcrypto: XTS dst/src length mismatch (%d vs %d)", len(dst), len(src))
	}
	if len(src) < 16 {
		return fmt.Errorf("swcrypto: XTS data unit must be at least one block, got %d bytes", len(src))
	}
	t := x.initialTweak(sectorNum)

	full := len(src) / 16
	rem := len(src) % 16
	if rem == 0 {
		for i := 0; i < full; i++ {
			x.block(dst[i*16:], src[i*16:], &t, encrypt)
			mulAlpha(&t)
		}
		return nil
	}

	// Ciphertext stealing (IEEE 1619 section 5.3): process all but the last
	// full block, then swap-and-steal across the final partial block.
	for i := 0; i < full-1; i++ {
		x.block(dst[i*16:], src[i*16:], &t, encrypt)
		mulAlpha(&t)
	}
	lastFull := src[(full-1)*16 : full*16]
	tail := src[full*16:]

	if encrypt {
		var cc [16]byte
		x.block(cc[:], lastFull, &t, true) // CC = E(Pm-1)
		mulAlpha(&t)
		var pp [16]byte
		copy(pp[:], tail)        // Pm || ...
		copy(pp[rem:], cc[rem:]) // steal tail of CC
		tailOut := append([]byte(nil), cc[:rem]...)
		x.block(dst[(full-1)*16:], pp[:], &t, true) // Cm-1 = E(PP)
		copy(dst[full*16:], tailOut)                // Cm = head of CC
		return nil
	}

	// Decrypt: the last full ciphertext block was produced with the *second*
	// tweak; the stolen block with the first of the pair.
	t1 := t
	mulAlpha(&t1) // tweak for position m-1 during encryption's final step
	var pp [16]byte
	x.blockWith(pp[:], lastFull, &t1, false) // PP = D(Cm-1) with tweak m
	var cc [16]byte
	copy(cc[:], tail)
	copy(cc[rem:], pp[rem:])
	tailOut := append([]byte(nil), pp[:rem]...)
	x.blockWith(dst[(full-1)*16:], cc[:], &t, false) // Pm-1 with tweak m-1
	copy(dst[full*16:], tailOut)
	return nil
}

func (x *XTS) block(dst, src []byte, t *[16]byte, encrypt bool) {
	x.blockWith(dst, src, t, encrypt)
}

// blockWith works in dst itself (dst and src are the same block or do not
// overlap): a local scratch block would escape through the cipher.Block
// interface and cost a heap allocation per block.
func (x *XTS) blockWith(dst, src []byte, t *[16]byte, encrypt bool) {
	dst = dst[:16]
	for i := 0; i < 16; i++ {
		dst[i] = src[i] ^ t[i]
	}
	if encrypt {
		x.data.Encrypt(dst, dst)
	} else {
		x.data.Decrypt(dst, dst)
	}
	for i := 0; i < 16; i++ {
		dst[i] ^= t[i]
	}
}
