"""Kerr closed forms in Boyer-Lindquist coordinates: one kernel per form.

Generated by `python -m kerrlab._derive` from the symbolic forms in
`kerrlab._derive`; do not edit.  Each kernel of (m, a, r, th), and `flow`
and `integrals` of (m, a, r, th, pv, pr, pth, ppsi), returns the entries of
its form that are not identically zero, in flat order, with common
subexpressions eliminated.  `kerr._forms` scatters them into arrays, except
flow's and integrals', which are lists.
"""

from numpy import cos, sin, sqrt

# name -> (kernel, shape, non-zero flat indices, dtype)
FORMS = {}


def g(m, a, r, th):
    x0 = r**2
    x1 = a**2
    x2 = x0 + x1*cos(th)**2
    x3 = x2**(-1.0)
    x4 = 2*m*r
    x5 = sin(th)**2
    x6 = x3*x5
    x7 = -a*x4*x6
    x8 = x0 + x1
    x9 = -x4 + x8
    return [x3*x4 - 1, x7, x2/x9, x2, x7, x6*(-x1*x5*x9 + x8**2)]


FORMS['g'] = (g, (4, 4), (0, 3, 5, 10, 12, 15), float)


def ginv(m, a, r, th):
    x0 = a**2
    x1 = r**2
    x2 = x0 + x1
    x3 = 2*m*r
    x4 = x2 - x3
    x5 = sin(th)**2
    x6 = x0*x5
    x7 = (x0*cos(th)**2 + x1)**(-1.0)
    x8 = x7/x4
    x9 = -a*x3*x8
    return [x8*(-x2**2 + x4*x6), x9, x4*x7, x7, x9, x8*(x0 + x1 - x3 - x6)/x5]


FORMS['ginv'] = (ginv, (4, 4), (0, 3, 5, 10, 12, 15), float)


def sqrtg(m, a, r, th):
    return [(a**2*cos(th)**2 + r**2)*sin(th)]


FORMS['sqrtg'] = (sqrtg, (), (0,), float)


def gamma(m, a, r, th):
    x0 = r**2
    x1 = a**2
    x2 = cos(th)
    x3 = x0 + x1*x2**2
    x4 = x3**(-1.0)
    x5 = 2*m
    x6 = sin(th)
    x7 = x6**2
    x8 = a*x7
    x9 = x3**(-2.0)
    x10 = 4*m
    x11 = x0*x10*x9
    x12 = x11*x8 - x4*x5*x8
    x13 = r*x5
    x14 = x0 + x1
    x15 = -x13 + x14
    x16 = x15**(-1.0)
    x17 = r*x4
    x18 = a*x17
    x19 = m*x16*x18
    x20 = x12*x19
    x21 = x1*x7
    x22 = -x14**2 + x15*x21
    x23 = -2*m*x4 + x11
    x24 = -x23
    x25 = (1/2)*x16*x22*x24*x4 - x20
    x26 = x3**(-3.0)
    x27 = x1*x2
    x28 = x13*x26*x27*x6
    x29 = x2*x6
    x30 = x6**3
    x31 = a**3
    x32 = 4*m*r*x2*x30*x31*x9 + x10*x18*x29
    x33 = -x32
    x34 = x19*x33
    x35 = x16*x22*x28 - x34
    x36 = -2*r + x5
    x37 = 2*r
    x38 = -x22
    x39 = x38*x9
    x40 = x37*x39*x7 - x4*x7*(4*r*x14 + x21*x36)
    x41 = -x40
    x42 = (1/2)*x12*x16*x22*x4 - x19*x41
    x43 = 2*x27*x30
    x44 = x4*x6
    x45 = -x15*x4*x43 + 2*x2*x38*x44 + x39*x43
    x46 = (1/2)*x16*x22*x33*x4 - x19*x45
    x47 = (1/2)*x4
    x48 = x15*x47
    x49 = -x12*x48
    x50 = x27*x44
    x51 = -x50
    x52 = x32*x47
    x53 = x7**(-1.0)
    x54 = x0 + x1 - x13 - x21
    x55 = (1/2)*x12*x16*x4*x53*x54 - x19*x24
    x56 = -4*m**2*x0*x16*x26*x29*x31 + (1/2)*x16*x33*x4*x53*x54
    x57 = (1/2)*x16*x4*x41*x53*x54 - x20
    x58 = (1/2)*x16*x4*x45*x53*x54 - x34
    return [x25, x35, x25, x42, x35, x46, x42, x46, x23*x48, x49, x48*(x16*x37 + x3*x36/x15**2), x51, x51, -x15*x17, x49, x40*x48, -x28, x52, x16*x50, x17, x17, x51, x52, -x45*x47, x55, x56, x55, x57, x56, x58, x57, x58]


FORMS['gamma'] = (gamma, (4, 4, 4), (1, 2, 4, 7, 8, 11, 13, 14, 16, 19, 21, 22, 25, 26, 28, 31, 32, 35, 37, 38, 41, 42, 44, 47, 49, 50, 52, 55, 56, 59, 61, 62), float)


def Y(m, a, r, th):
    x0 = cos(th)
    x1 = a*x0
    x2 = sin(th)
    x3 = r*x2
    x4 = a*x3
    x5 = a**2
    x6 = x0*x2**2*x5
    x7 = x3*(r**2 + x5)
    return [-x1, x4, x1, -x6, -x4, x7, x6, -x7]


FORMS['Y'] = (Y, (4, 4), (1, 2, 4, 7, 8, 11, 13, 14), float)


def dY(m, a, r, th):
    x0 = sin(th)
    x1 = a*x0
    x2 = -x1
    x3 = r**2
    x4 = 2*x0
    x5 = a**2
    x6 = x3 + x5
    x7 = x0*x6 + x3*x4
    x8 = cos(th)
    x9 = r*x8
    x10 = a*x9
    x11 = x0**3*x5 - x4*x5*x8**2
    x12 = x6*x9
    return [x1, x2, x7, -x7, x1, x10, x2, x11, -x10, x12, -x11, -x12]


FORMS['dY'] = (dY, (4, 4, 4), (18, 24, 27, 30, 33, 34, 36, 39, 40, 43, 45, 46), float)


def K(m, a, r, th):
    x0 = a**2
    x1 = sin(th)
    x2 = x1**2
    x3 = x0*x2
    x4 = r**2
    x5 = cos(th)
    x6 = x5**2
    x7 = x0*x6
    x8 = (x4 + x7)**(-1.0)
    x9 = x4*x8
    x10 = 2*m
    x11 = r*x10
    x12 = x0 + x4
    x13 = -x11 + x12
    x14 = x13*x8
    x15 = x2*x9
    x16 = a*x12
    x17 = x14*x6
    x18 = a**3*x2
    x19 = x15*x16 + x17*x18
    x20 = x0*x5
    x21 = x13**(-1.0)
    x22 = x21*x8
    x23 = x11*x22
    x24 = x22*(x0 - x11 - x3 + x4)
    x25 = a*x5
    x26 = x12**2
    x27 = x22*(x13*x3 - x26)
    x28 = x1*x10*x21*x9
    x29 = r*x1
    x30 = a*x29
    return [-x14*x7 - x3*x9, x19, -x25*(x18*x23*x5 + x25*x27) + x3*x5*(-x20*x23 - x20*x24), -x12*x29*(r*x12*x24/x1 + x0*x28) + x30*(-x16*x28 - x27*x30), x19, -a**4*x1**4*x17 - x15*x26]


FORMS['K'] = (K, (4, 4), (0, 3, 5, 10, 12, 15), float)


def dK(m, a, r, th):
    x0 = a**2
    x1 = sin(th)
    x2 = x1**2
    x3 = x0*x2
    x4 = r**2
    x5 = cos(th)
    x6 = x5**2
    x7 = x0*x6
    x8 = x4 + x7
    x9 = x8**(-1.0)
    x10 = 2*r
    x11 = x10*x9
    x12 = x8**(-2.0)
    x13 = r**3
    x14 = 2*x13
    x15 = x12*x14
    x16 = 2*m
    x17 = -2*r + x16
    x18 = -x17
    x19 = x18*x9
    x20 = r*x16
    x21 = x0 + x4
    x22 = -x20 + x21
    x23 = x12*x22
    x24 = x10*x23
    x25 = x2*x9
    x26 = a*x2*x21
    x27 = x19*x6
    x28 = a**3
    x29 = x2*x28
    x30 = a*x14*x25 + x11*x26 - x15*x26 - x24*x29*x6 + x27*x29
    x31 = x0*x5
    x32 = x22**(-1.0)
    x33 = x32*x9
    x34 = x16*x33
    x35 = x31*x34
    x36 = x19*x32
    x37 = x17/x22**2
    x38 = x37*x9
    x39 = x0 - x20 - x3 + x4
    x40 = x31*x39
    x41 = x3*x5
    x42 = x25*x28*x5
    x43 = x32*x42
    x44 = x29*x5
    x45 = x12*x32
    x46 = m*x45
    x47 = 4*x46
    x48 = x4*x44*x47
    x49 = r*x21
    x50 = 4*x49
    x51 = x18*x3 - x50
    x52 = a*x5
    x53 = x33*x52
    x54 = x21**2
    x55 = x22*x3 - x54
    x56 = x52*x55
    x57 = x10*x45
    x58 = x0*x1
    x59 = x34*x4
    x60 = x1**(-1.0)
    x61 = x33*x39
    x62 = x60*x61
    x63 = x49*x62 + x58*x59
    x64 = x1*x63
    x65 = 2*x4
    x66 = a*x1
    x67 = x21*x66
    x68 = r*x66
    x69 = x33*x55
    x70 = -x59*x67 - x68*x69
    x71 = m*x33
    x72 = 4*r*x71
    x73 = 4*x13
    x74 = x16*x4
    x75 = x38*x74
    x76 = x49*x60
    x77 = x12*x65
    x78 = x1*x49
    x79 = x66*x71
    x80 = x66*x69
    x81 = a**4
    x82 = x1**4
    x83 = x1*x65*x9
    x84 = x1**3
    x85 = x5*x84
    x86 = x77*x85
    x87 = x5**3
    x88 = x23*x87
    x89 = 2*x1
    x90 = x81*x89
    x91 = x89*x9
    x92 = x22*x9
    x93 = 2*x88
    x94 = a**5*x84
    x95 = x21*x28*x86 + x21*x52*x83 + x22*x28*x87*x91 - 2*x28*x85*x92 + x93*x94
    x96 = x20*x33
    x97 = -x31*x61 - x31*x96
    x98 = x0*x84
    x99 = x6*x90
    x100 = r*x6
    x101 = 4*x81
    x102 = x101*x46
    x103 = x28*x6
    x104 = x49*x5
    x105 = r*x52
    x106 = x5*x54
    x107 = x1**5
    return [-x11*x3 + x15*x3 - x19*x7 + x24*x7, x30, x41*(4*m*x0*x12*x32*x4*x5 + 2*r*x0*x12*x32*x39*x5 - x20*x31*x38 - x31*x36 - x35 - x38*x40) - x52*(x16*x43 + x20*x37*x42 + x38*x56 - x48 + x51*x53 - x56*x57), a*r*x1*(4*a*m*x1*x12*x13*x21*x32 + 2*a*x1*x12*x32*x4*x55 - x33*x51*x68 - x38*x55*x68 - x50*x79 - x67*x75 - x73*x79 - x80) + a*x1*x70 - x21*x64 - x64*x65 - x78*(-x21*x32*x39*x60*x77 + x21*x62 + x36*x76 + x38*x39*x76 - x46*x58*x73 + x58*x72 + x58*x75 + x62*x65), x30, 2*r*x12*x22*x6*x81*x82 - x11*x2*x54 + 2*x12*x13*x2*x54 - x21*x25*x73 - x27*x81*x82, 2*x0*x1*x22*x5*x9 - x31*x83 - x81*x86 - x88*x90, x95, x41*(-x1*x100*x102 + x33*x99 - x39*x45*x99 + x58*x61 + x58*x96) - x52*(x1*x103*x72 + x100*x47*x94 + x103*x45*x55*x89 + x103*x91 - x28*x84*x96 - x80) + x66*(x20*x43 + x53*x55) + x7*x89*x97 - x97*x98, -x104*x63 + x105*x70 + x68*(-x105*x69 - x11*x44 - x21*x48 - x21*x53*x74 - x44*x55*x57) - x78*(x102*x2*x4*x5 - x104*x61/x2 - x11*x21*x31*x32 + x21*x40*x57 + x35*x4), x95, -a**6*x107*x93 - x101*x84*x87*x92 - x106*x77*x98 - x106*x83 + 2*x107*x22*x5*x81*x9]


FORMS['dK'] = (dK, (4, 4, 4), (16, 19, 21, 26, 28, 31, 32, 35, 37, 42, 44, 47), float)


def xi(m, a, r, th):
    x0 = sin(th)
    x1 = r**2
    x2 = a**2
    x3 = cos(th)
    x4 = x3**2
    x5 = x1 + x2*x4
    x6 = 2*m
    x7 = r*x6
    x8 = x1 + x2
    x9 = -x7 + x8
    x10 = x9**(-1.0)
    x11 = x1*x10
    x12 = x5**(-2.0)
    x13 = x0*x12
    x14 = x13*x6
    x15 = x14*x2
    x16 = r*x8
    x17 = x0**(-1.0)
    x18 = x0**2
    x19 = x18*x2
    x20 = x1 - x19 + x2 - x7
    x21 = x10*x17*x20
    x22 = x12*x21
    x23 = x11*x15 + x16*x22
    x24 = -x23
    x25 = (1/2)*x5
    x26 = x0*x25
    x27 = -1/2*x0*x23*x5 + x24*x26
    x28 = -x27
    x29 = -2*r + x6
    x30 = -x29
    x31 = x5**(-1.0)
    x32 = (1/3)*x31
    x33 = x30*x32
    x34 = x9**2
    x35 = 2*r
    x36 = x29/x34
    x37 = x10*x35 + x36*x5
    x38 = x34*x37
    x39 = (1/6)*x38
    x40 = a**3
    x41 = x5**(-3.0)
    x42 = 4*x0*x41
    x43 = x18**(-1.0)
    x44 = r*x0
    x45 = x3*x31
    x46 = a*x45
    x47 = 4*m
    x48 = x0**3
    x49 = x40*x48
    x50 = x12*x3
    x51 = r*x50
    x52 = x44*x46*x47 + x47*x49*x51
    x53 = -x52
    x54 = -m**2*x11*x3*x40*x42 + (1/2)*x10*x20*x31*x43*x53
    x55 = x40*x7
    x56 = x19*x9
    x57 = x56 - x8**2
    x58 = a*x57
    x59 = x18*x50*x55 + x50*x58
    x60 = -x59
    x61 = -1/2*x0*x5*x59 + x26*x60
    x62 = -x61
    x63 = x31*x6
    x64 = x1*x12
    x65 = x47*x64
    x66 = -x63 + x65
    x67 = -x66
    x68 = m*x10
    x69 = a*r*x31*x68
    x70 = -2*a*m*x18*x31 + a*x18*x65
    x71 = (1/2)*x10*x20*x31*x43*x70 - x67*x69
    x72 = a*x8
    x73 = x10*x58
    x74 = x12*x44
    x75 = x11*x14*x72 + x73*x74
    x76 = -x75
    x77 = -1/2*x0*x5*x75 + x26*x76
    x78 = -x77
    x79 = x53*x69
    x80 = 2*x45
    x81 = x2*x48
    x82 = -x57
    x83 = x0*x80*x82 + 2*x50*x81*x82 - x80*x81*x9
    x84 = (1/2)*x10*x20*x31*x43*x83 - x79
    x85 = x2*x7
    x86 = x2*x20
    x87 = x50*x85 + x50*x86
    x88 = -x87
    x89 = -1/2*x0*x5*x87 + x26*x88
    x90 = -x32*x89
    x91 = a*x10
    x92 = x7*x91
    x93 = x10*x31*x57*x89 - x31*x61*x92
    x94 = x3*x41
    x95 = x69*x70
    x96 = -4*r*x8 + x19*x30
    x97 = x12*x18*x35*x82 + x18*x31*x96
    x98 = -x97
    x99 = (1/2)*x10*x20*x31*x43*x98 - x95
    x100 = x32*x9
    x101 = x100*x28
    x102 = x31*x92
    x103 = x10*x20*x31*x43*x61 - x102*x89
    x104 = x10*x27*x31*x57 - x102*x77
    x105 = -x70
    x106 = x10*x20*x31*x43*x77 - x102*x27
    x107 = x3*x88
    x108 = x3*x87
    x109 = a**4
    x110 = 2*x13
    x111 = -8*m*r*x0*x109*x4*x41 - 4*x0*x109*x20*x4*x41 + x109*x110*x4 + x13*x85 + x13*x86
    x112 = x10*x12
    x113 = x112*x44
    x114 = x0*x2
    x115 = r**3
    x116 = 8*x115*x41*x68
    x117 = x16*x17
    x118 = x1*x8
    x119 = x1*x15*x36 + x112*x117*x30 + x113*x2*x47 - x114*x116 + x117*x12*x20*x36 - 4*x118*x21*x41 + 2*x21*x64 + x22*x8
    x120 = x11*x63
    x121 = x0*x72
    x122 = x31*x44
    x123 = -x120*x121 - x122*x73
    x124 = x31*x52
    x125 = x16*x31
    x126 = (1/2)*x114*x120 + (1/2)*x125*x21
    x127 = x10*x45
    x128 = x31*x9
    x129 = (1/2)*x128
    x130 = x129*(-x127*x85 - x127*x86)
    x131 = x10*x57
    x132 = x129*(x10*x18*x3*x31*x55 + x131*x46)
    x133 = x12*x78
    x134 = x0*x131*x85*x94 - x79
    x135 = (1/2)*x10*x31*x57*x67 - x95
    x136 = (1/2)*x10*x31*x53*x57 - x69*x83
    x137 = (1/2)*x10*x31*x57*x70 - x69*x98
    x138 = -x31*x83
    x139 = (1/6)*x128
    x140 = x19*x3
    x141 = x25*x3
    x142 = x4*x40
    x143 = x13*x58
    x144 = 8*a**5*m*r*x4*x41*x48 + x110*x142*x9 - x12*x49*x7 + x142*x42*x57 + x142*x47*x74 - x143
    x145 = a*x113*x96 + a*x118*x14*x36 + 4*a*x13*x16*x68 - x1*x42*x73 + x10*x143 + x115*x13*x47*x91 - x116*x121 + x36*x58*x74
    return [-2/3*m*x2*x44*x93*x94 + (1/3)*r*x12*x28*x9 - x100*(r*x0*x23 + (1/2)*x0*x119*x5 + x119*x26 - x24*x44) - x101*x99 + (1/6)*x103*x31*x52 + (1/6)*x104*x31*x66*x9 + (1/6)*x105*x106*x31*x9 - x12*x28*x39 - x28*x33 + (1/3)*x31*x54*x62 + (1/3)*x31*x71*x78*x9 - x32*(x107*x19 - x107*x25 - x108*x19 + x108*x25 - 2*x111*x26) - x84*x90 + (1/3)*1j*(a*r*x0*x31*x84 + a*r*x12*x3*x9 + a*r*x3*x31 - 1/2*a*x38*x50 + 2*m*r*x0*x123*x2*x3*x41 + r*x0*x31*x54*x8 - x105*x130 - x124*x126 - x132*x66 - x30*x46 - x45*x56*x71 - x46*x9*x99), (1/3)*r*x133*x9 - x100*x135*x78 - x100*(r*x0*x75 + (1/2)*x0*x145*x5 + x145*x26 - x44*x76) + x101*x137 + (1/6)*x103*x138 + x104*x105*x139 + x106*x139*x97 + (1/6)*x124*x93 - x133*x39 - x134*x32*x62 + x136*x90 - x32*(-x140*x59 + x140*x60 + x141*x59 - x141*x60 + 2*x144*x26) - x33*x78 + (1/3)*1j*(-a*x122*x136 + a*x137*x3*x31*x9 - x0*x125*x134 - x105*x132 + (1/2)*x12*x18*x2*x3*x34*x37 - 1/2*x123*x124 - x126*x138 - x130*x97 + x135*x18*x2*x3*x31*x9 - x16*x45 + x18*x2*x3*x30*x31 - x51*x56)]


FORMS['xi'] = (xi, (4,), (0, 3), complex)


def l(m, a, r, th):
    x0 = a**2 + r**2
    x1 = (-2*m*r + x0)**(-1.0)
    return [x0*x1, 1, a*x1]


FORMS['l'] = (l, (4,), (0, 1, 3), float)


def n(m, a, r, th):
    x0 = a**2
    x1 = r**2
    x2 = x0 + x1
    x3 = (2*x0*cos(th)**2 + 2*x1)**(-1.0)
    return [x2*x3, x3*(2*m*r - x2), a*x3]


FORMS['n'] = (n, (4,), (0, 1, 3), float)


def m_vec(m, a, r, th):
    x0 = sin(th)
    x1 = 1j*a
    x2 = (1/2)*sqrt(2)/(r + x1*cos(th))
    return [x0*x1*x2, x2, 1j*x2/x0]


FORMS['m_vec'] = (m_vec, (4,), (0, 2, 3), complex)


def F_coulomb(m, a, r, th):
    x0 = r**2
    x1 = a**2
    x2 = cos(th)
    x3 = x0 + x1*x2**2
    x4 = x3**(-1.0)
    x5 = 2/x3**2
    x6 = x0*x5
    x7 = -x4 + x6
    x8 = sin(th)
    x9 = r*x2*x8
    x10 = x1*x5*x9
    x11 = x8**2
    x12 = -a*x11*x4 + a*x11*x6
    x13 = a**3*r*x2*x5*x8**3 + 2*a*x4*x9
    return [-x7, x10, x7, -x12, -x10, x13, x12, -x13]


FORMS['F_coulomb'] = (F_coulomb, (4, 4), (1, 2, 4, 7, 8, 11, 13, 14), float)


def F_uniform(m, a, r, th):
    x0 = sin(th)
    x1 = x0**2
    x2 = r**2
    x3 = a**2
    x4 = cos(th)
    x5 = x2 + x3*x4**2
    x6 = x5**(-1.0)
    x7 = 2*m
    x8 = x5**(-2.0)
    x9 = x2*x8
    x10 = 4*m*x9
    x11 = -a*m*x1*x6 + a*x1*x7*x9 + a*(2*m*x6 - x10)
    x12 = x6*x7
    x13 = x0*x4
    x14 = 4*m*r
    x15 = a**3*x8
    x16 = r*x7
    x17 = x0**3
    x18 = x17*x4
    x19 = a*r*x12*x13 - x13*x14*x15 + x15*x16*x18
    x20 = x1*x3
    x21 = x2 + x3
    x22 = -x16 + x21
    x23 = -x20*x22 + x21**2
    x24 = -r*x1*x23*x8 + (1/2)*x1*x6*(4*r*x21 - x20*(2*r - x7)) + x10*x20 - x12*x20
    x25 = x4*x6
    x26 = a**4*x14*x18*x8 + x0*x14*x25*x3 - x0*x23*x4*x6 + x17*x22*x25*x3 - x17*x23*x3*x4*x8
    return [-x11, x19, x11, x24, -x19, -x26, -x24, x26]


FORMS['F_uniform'] = (F_uniform, (4, 4), (1, 2, 4, 7, 8, 11, 13, 14), float)


def flow(m, a, r, th, pv, pr, pth, ppsi):
    x0 = (r*r)
    x1 = cos(th)
    x2 = (a*a)
    x3 = 2*x2
    x4 = 2*x0 + (x1*x1)*x3
    x5 = (1/x4)
    x6 = 2*a
    x7 = ppsi*x6
    x8 = x0 + x2
    x9 = 2*pr
    x10 = x8*x9
    x11 = sin(th)
    x12 = (x11*x11)
    x13 = 2*m
    x14 = -r*x13 + x8
    x15 = x5*(2*pv*x8 + x14*x9 + x7)
    x16 = x15/x14
    x17 = (1/x12)
    x18 = 4*r
    x19 = (pr*pr)
    x20 = (ppsi*ppsi)
    x21 = (pv*pv)
    x22 = (pr*x7 + (pth*pth) + pv*x10 + pv*x7 + x12*x2*x21 + x14*x19 + x17*x20)/(x4*x4)
    x23 = x1*x11
    return [-x16*x8 + x5*(pv*x12*x3 + x10 + x7), x15, 2*pth*x5, -a*x16 + x5*(2*ppsi*x17 + pr*x6 + pv*x6), x18*x22 - x5*(pr*pv*x18 + x19*(2*r - x13)), -4*x2*x22*x23 - x5*(-2*x1*x20/(x11*x11*x11) + x21*x23*x3)]


FORMS['flow'] = (flow, (6,), (0, 1, 2, 3, 4, 5), float)


def integrals(m, a, r, th, pv, pr, pth, ppsi):
    x0 = (pth*pth)
    x1 = sin(th)
    x2 = a*pv
    x3 = (a*a)
    x4 = cos(th)**2
    x5 = (r*r)
    x6 = (2*x3*x4 + 2*x5)**(-1.0)
    x7 = 2*ppsi
    x8 = (x1*x1)
    x9 = x3 + x5
    x10 = a*pr*x7 + (ppsi*ppsi)/x8 + (pr*pr)*(-2*m*r + x9) + 2*pr*pv*x9 + (pv*pv)*x3*x8 + x0 + x2*x7
    return [-x0 + 2*x10*x3*x4*x6 - (ppsi/x1 + x1*x2)**2, 2*x10*x6]


FORMS['integrals'] = (integrals, (2,), (0, 1), float)
